package core

// ModelVersion numbers the behaviour of the simulation model. A change
// that moves any simulated number, and so re-baselines a golden holding
// simulated results, bumps it. The sweep engine hashes it into every
// run's fingerprint, so a result store written by another version is
// re-executed on -resume instead of being trusted. The SHA-256 of each
// such golden is pinned beside the version that wrote it
// (testdata/model_version.txt, TestModelVersionPinsGoldens).
const ModelVersion = 1
