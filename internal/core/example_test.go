package core_test

import (
	"fmt"
	"log"
	"time"

	"gemsim/internal/core"
	"gemsim/internal/model"
)

// ExampleRun runs the README's library-usage configuration: four nodes
// under primary copy locking with random routing and FORCE, the
// BRANCH/TELLER partition in GEM.
func ExampleRun() {
	cfg := core.DefaultDebitCreditConfig(4) // Table 4.1 settings, 4 nodes
	cfg.Coupling = core.CouplingPCL         // loose coupling
	cfg.Routing = core.RoutingRandom
	cfg.Force = true // FORCE update strategy
	cfg.FileMedium = map[string]model.Medium{
		"BRANCH/TELLER": model.MediumGEM, // hot partition in GEM
	}
	cfg.Warmup = 2 * time.Second
	cfg.Measure = 8 * time.Second

	rep, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := &rep.Metrics
	fmt.Printf("commits     %d\n", m.Commits)
	fmt.Printf("throughput  %.1f TPS\n", m.Throughput)
	fmt.Printf("mean RT     %.1f ms\n", float64(m.MeanResponseTime)/float64(time.Millisecond))
	// Output:
	// commits     3127
	// throughput  390.9 TPS
	// mean RT     99.1 ms
}
