package node

import (
	"fmt"
	"time"

	"gemsim/internal/attrib"
	"gemsim/internal/buffer"
	"gemsim/internal/cc"
	"gemsim/internal/cpusrv"
	"gemsim/internal/flatmap"
	"gemsim/internal/gem"
	"gemsim/internal/lock"
	"gemsim/internal/model"
	"gemsim/internal/netsim"
	"gemsim/internal/pagedir"
	"gemsim/internal/rng"
	"gemsim/internal/routing"
	"gemsim/internal/sim"
	"gemsim/internal/stats"
	"gemsim/internal/storage"
	"gemsim/internal/trace"
	"gemsim/internal/workload"
)

// System is one complete database sharing configuration: N processing
// nodes over shared disks (and, for close coupling, a shared GEM), plus
// the workload source.
type System struct {
	env    *sim.Env
	params Params
	db     *model.Database
	gen    workload.Generator
	router routing.Router
	gla    routing.GLAMap

	gemDev *gem.GEM
	net    *netsim.Network
	groups map[model.FileID]*storage.Group
	nodes  []*Node
	// engine is the centralized lock engine (CouplingLockEngine only),
	// a station the CPU is held on like a GEM access.
	engine *cpusrv.Device

	// dir is the page directory: a reference resolves its page to a
	// slot once, and the slot holds the page's system-wide state — the
	// coherency metadata of the GLT (committed sequence number and
	// current owner) or of its GLA partition, its lock entry, its GEM
	// write-buffer version and append-stored bit, and (PCL) two node
	// bitsets: the read authorizations the GLA granted, then each
	// node's own view of the ones it holds (raWords words each).
	dir     *pagedir.Dir
	raWords int
	// Concurrency control state. GEM locking uses tables[0] as the
	// global lock table; PCL uses one table per GLA node.
	tables   []*lock.Table
	detector *lock.Detector
	// partMeta counts, per GLA partition, the pages whose metadata the
	// partition has recorded (pclMetaOf).
	partMeta []int
	// ccVersions is the multiversion page store (CC == KindMVTO only):
	// bounded per-page version histories and read timestamps backing
	// timestamp-ordered reads and first-committer-wins writes.
	ccVersions *cc.VersionStore
	// Recycled message and wait records (messages.go) and page-I/O
	// records (node.go).
	msgs  sim.FreeList[message]
	waits sim.FreeList[remoteWait]
	ops   sim.FreeList[pageOp]
	// GEM write-buffer statistics; a page whose asynchronous disk
	// update is pending has Buffered set in its slot.
	wbWrites   int64
	wbReadHits int64
	// gemCaches are the non-volatile LRU page caches in GEM fronting
	// the disk groups of MediumGEMCache files.
	gemCaches    map[model.FileID]*buffer.Pool[int32] // keyed by slot
	gemCacheHits int64
	gemCacheReqs int64

	oracle *oracle
	split  *rng.Splitter
	txSeq  lock.TxID
	// owners gives every lock owner its handle; active holds the
	// running attempts by owner handle, live counts them.
	owners *lock.Owners
	active []*txn
	live   int
	// routed is the router's argument (route).
	routed model.Txn
	// Recycled per-transaction records (runWithRetry).
	vectors sim.FreeList[attrib.Vector]

	// rtBatches feeds the batch-means confidence interval on the mean
	// response time (all model code runs one-process-at-a-time, so the
	// shared collector needs no locking).
	rtBatches *stats.BatchMeans

	// sourceProc is the open-model arrival process (used by the
	// load-aware router to charge GEM status reads); terminals is the
	// closed-loop source. At most one of them is set.
	sourceProc *sim.Proc
	terminals  *pooledTerminals

	// Global log merge state (GlobalLogMerge): local log pages written
	// to GEM but not yet merged into the global log, and the total
	// merged.
	unmergedLogPages int64
	mergedLogPages   int64

	statsStart sim.Time

	// Fault injection state (FaultsEnabled). down marks crashed nodes;
	// glaHome maps each GLA partition to the node currently serving it
	// (PCL failover reassigns the partitions of a crashed node).
	faultsOn bool
	down     []bool
	glaHome  []int
	// recoverySeq numbers recovery fence owners (negative tx ids, so
	// they are never chosen as deadlock victims).
	recoverySeq int64
	// Availability statistics.
	txnsKilled   int64
	txnsRetried  int64
	lockTimeouts int64
	failovers    []FailoverStats
	// failWindows are the [crash, recovery-end] intervals used to
	// classify response times into pre/during/post failure phases. They
	// survive ResetStats so a crash spanning the warm-up boundary still
	// marks the measurement interval.
	failWindows []*failWindow
	respPre     stats.Series
	respDuring  stats.Series
	respPost    stats.Series
	// recs holds the live state of every in-flight recovery under the
	// replay engine, in start order: recoveries of different failed
	// nodes may overlap.
	recs []*recoveryRun
	// avail is the windowed availability tracker (fault runs only);
	// it measures time-to-full-throughput and per-window
	// unavailability against a pre-crash baseline.
	avail *availTracker
	// pageObserver, when non-nil, sees every transaction page access
	// after its lock is granted (invariant tests: no transaction may
	// observe an unredone page).
	pageObserver func(slot int32)

	// Observability (see observe.go). tracer fans spans out to the
	// configured sink (nil when tracing is off); the remaining fields
	// are the windowed time-series sampler state.
	tracer   *trace.Tracer
	sampling bool
	winRT    stats.Series
	winHist  *stats.Histogram
	prevWin  winCounters

	// Bottleneck attribution (package attrib): attribBD aggregates
	// the per-transaction response-time records and is nil when
	// attribution is off; prevStations re-bases the per-station
	// counters between sampler ticks for windowed law instants.
	attribBD     *attrib.Breakdown
	prevStations []attrib.StationCounters

	// ctl is the adaptive load controller (StartControl); nil for
	// static allocation, in which case no controller code runs at all.
	ctl *controller
}

// errDeadlock aborts a transaction chosen as deadlock victim.
var errDeadlock = fmt.Errorf("node: transaction aborted as deadlock victim")

// errKilled unwinds a transaction whose node crashed; the recovery
// phase, not the transaction, cleans up its locks and pages.
var errKilled = fmt.Errorf("node: transaction killed by node crash")

// errTimeout aborts a transaction whose lock wait exceeded
// LockWaitTimeout: the holder may have crashed or a grant message may
// have been lost; the transaction retries with exponential back-off.
var errTimeout = fmt.Errorf("node: lock wait timed out")

// NewSystem assembles a system for the given parameters, workload and
// allocation strategies. gla may be nil for GEM coupling.
func NewSystem(env *sim.Env, params Params, gen workload.Generator, router routing.Router, gla routing.GLAMap) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	db := gen.Database()
	if err := db.Validate(); err != nil {
		return nil, err
	}
	if params.Coupling == CouplingPCL && gla == nil {
		return nil, errParam("PCL coupling needs a GLA map")
	}
	s := &System{
		env:       env,
		params:    params,
		db:        db,
		gen:       gen,
		router:    router,
		gla:       gla,
		gemDev:    gem.New(env, params.GEM),
		net:       netsim.New(env, params.Net, params.Nodes),
		groups:    make(map[model.FileID]*storage.Group, len(db.Files)),
		gemCaches: make(map[model.FileID]*buffer.Pool[int32]),
		split:     rng.NewSplitter(params.Seed),
		owners:    lock.NewOwners(),
		rtBatches: stats.NewBatchMeans(100),
	}
	if params.CheckInvariants {
		s.oracle = newOracle()
	}
	if params.CC == cc.KindMVTO {
		s.ccVersions = cc.NewVersionStore(8)
	}

	// Storage allocation: one disk group per disk-backed file; GEM
	// resident files are registered with the GEM device.
	for i := range db.Files {
		f := &db.Files[i]
		if f.Medium == model.MediumGEM {
			s.gemDev.AllocateFile(f.ID)
			continue
		}
		sp := storage.DefaultDBParams(params.DisksPerFile)
		switch f.Medium {
		case model.MediumGEMCache:
			size := params.DiskCachePages[f.ID]
			if size <= 0 {
				size = int(f.Pages)
				if size <= 0 {
					size = 1024
				}
			}
			s.gemCaches[f.ID] = buffer.NewPool(size, flatmap.Int32)
		case model.MediumDiskCacheVolatile, model.MediumDiskCacheNV:
			size := params.DiskCachePages[f.ID]
			if size <= 0 {
				size = int(f.Pages)
				if size <= 0 {
					size = 1024
				}
			}
			sp.Cache = &storage.CacheParams{
				SizePages: size,
				Volatile:  f.Medium == model.MediumDiskCacheVolatile,
			}
		}
		s.groups[f.ID] = storage.NewGroup(env, f.Name, sp)
	}

	// Lock tables: one global table for GEM locking and the lock
	// engine, one per node for PCL.
	if params.Coupling != CouplingPCL {
		s.dir = pagedir.New(0)
		s.tables = []*lock.Table{lock.NewTable(s.dir, s.owners)}
		if params.Coupling == CouplingLockEngine {
			s.engine = &cpusrv.Device{Res: sim.NewResource(env, "lockengine", 1), Svc: params.LockEngine.ServiceTime, Span: s.engineSpan}
		}
	} else {
		s.raWords = (params.Nodes + 63) / 64
		s.dir = pagedir.New(2 * s.raWords)
		s.tables = make([]*lock.Table, params.Nodes)
		s.partMeta = make([]int, params.Nodes)
		for i := range s.tables {
			s.tables[i] = lock.NewTable(s.dir, s.owners)
		}
	}
	s.detector = lock.NewDetector(s.tables...)

	s.faultsOn = params.FaultsEnabled
	s.down = make([]bool, params.Nodes)
	if params.Coupling == CouplingPCL {
		s.glaHome = make([]int, params.Nodes)
		for i := range s.glaHome {
			s.glaHome[i] = i
		}
	}
	if params.FaultsEnabled {
		s.net.SetDownCheck(func(node int) bool { return s.down[node] })
		if params.Net.LossProb > 0 {
			s.net.SetLossSource(s.split.Stream("msgloss"))
		}
	}

	s.nodes = make([]*Node, params.Nodes)
	for i := range s.nodes {
		s.nodes[i] = newNode(s, i)
	}
	for i, n := range s.nodes {
		s.net.Register(i, n.cpu, n.handleMessage)
	}
	if params.GEMMessaging {
		s.net.UseStore(&netsim.StoreTransport{
			Store:      s.gemDev,
			ShortInstr: params.GEMMsgShortInstr,
			LongInstr:  params.GEMMsgLongInstr,
		})
	}
	s.tracer = params.Tracer
	if !params.Attribution.Off {
		s.attribBD = &attrib.Breakdown{}
	}
	if s.tracer != nil {
		s.gemDev.SetTracer(s.tracer)
		s.net.SetTracer(s.tracer)
		for _, g := range s.groups {
			g.SetTracer(s.tracer)
		}
		for _, n := range s.nodes {
			n.cpu.SetTracer(s.tracer)
			n.logGroup.SetTracer(s.tracer)
		}
	}
	if lr, ok := router.(*LoadAwareRouter); ok {
		lr.attach(s)
	}
	return s, nil
}

// Env returns the simulation environment.
func (s *System) Env() *sim.Env { return s.env }

// Params returns the system parameters.
func (s *System) Params() Params { return s.params }

// Node returns node i (tests and diagnostics).
func (s *System) Node(i int) *Node { return s.nodes[i] }

// GEMDevice returns the GEM device.
func (s *System) GEMDevice() *gem.GEM { return s.gemDev }

// Group returns the disk group of a file, or nil for GEM-resident
// files.
func (s *System) Group(id model.FileID) *storage.Group { return s.groups[id] }

// Start launches the open-system workload source with the given
// arrival rate per node (Poisson arrivals over all nodes).
func (s *System) Start(ratePerNode float64) {
	if ratePerNode <= 0 {
		panic("node: arrival rate must be positive")
	}
	totalRate := ratePerNode * float64(s.params.Nodes)
	arrivals := s.split.Stream("arrivals")
	gen := s.split.Stream("workload")
	s.env.Spawn("source", func(p *sim.Proc) {
		s.sourceProc = p
		for {
			p.Wait(time.Duration(arrivals.Exp(1/totalRate) * float64(time.Second)))
			spec := s.gen.Next(gen, s.env.Now())
			s.nodes[s.route(spec)].admit(spec)
		}
	})
	s.startBackground()
}

// startBackground starts the work both sources run beside the
// workload: the global log merge, fuzzy checkpoints and the
// availability tracker.
func (s *System) startBackground() {
	s.startLogMerge()
	s.startCheckpoints()
	s.startAvailability()
}

// startLogMerge spawns the global log merge process at node 0: it
// periodically reads the newly written local log pages from GEM and
// appends them, merged by commit order, to the global log in GEM.
func (s *System) startLogMerge() {
	if !s.params.GlobalLogMerge {
		return
	}
	merger := s.nodes[0]
	s.env.Spawn("logmerge", func(p *sim.Proc) {
		for {
			p.Wait(s.params.LogMergeInterval)
			pending := s.unmergedLogPages
			if pending == 0 {
				continue
			}
			s.unmergedLogPages = 0
			for i := int64(0); i < pending; i++ {
				// Read one local log page, merge, write one global
				// log page.
				merger.gemPageIO(p, nil)
				merger.cpu.Exec(p, s.params.LogMergeInstr)
				merger.gemPageIO(p, nil)
				s.mergedLogPages++
			}
		}
	})
}

// MergedLogPages returns the number of log pages merged into the
// global log.
func (s *System) MergedLogPages() int64 { return s.mergedLogPages }

// route picks the node a new transaction runs at: the router's
// choice, redirected away from a down node, and observed by the
// adaptive controller. The router takes a pointer, which escapes
// through the interface call, so it is handed a copy kept in the
// System rather than the caller's spec.
func (s *System) route(spec model.Txn) int {
	s.routed = spec
	target := s.router.Route(&s.routed)
	s.routed = model.Txn{}
	if s.faultsOn {
		target = s.aliveTarget(target)
	}
	if s.ctl != nil {
		s.ctl.observeRoute(spec.Branch)
	}
	return target
}

// nextTxID allocates a transaction identifier; larger ids are younger.
func (s *System) nextTxID() lock.TxID {
	s.txSeq++
	return s.txSeq
}

// gltMetaOf returns the GLT coherency entry of the page in slot.
func (s *System) gltMetaOf(slot int32) *pagedir.Slot { return s.dir.At(slot) }

// pclMetaOf returns the coherency entry of the page in slot at its GLA
// partition gla, which records it.
func (s *System) pclMetaOf(gla int, slot int32) *pagedir.Slot {
	m := s.dir.At(slot)
	if !m.Meta {
		m.Meta = true
		s.partMeta[gla]++
	}
	return m
}

// glaOf returns the GLA partition of the page in slot, kept in the slot
// after the first lookup (the GLA map is static).
func (s *System) glaOf(slot int32) int {
	m := s.dir.At(slot)
	if m.Part == 0 {
		m.Part = int32(s.gla.GLA(m.Page)) + 1
	}
	return int(m.Part) - 1
}

// glaHomeOf returns the node currently serving GLA partition g: its
// original home, or — after a failover — the survivor that adopted the
// partition.
func (s *System) glaHomeOf(g int) int {
	if s.glaHome == nil {
		return g
	}
	return s.glaHome[g]
}

// blockForLock parks t until its pending lock request is granted,
// running deadlock detection first. It returns errDeadlock if t was
// chosen as (or became) a deadlock victim, errKilled if t's node
// crashed while it waited, and errTimeout when the wait exceeded
// LockWaitTimeout (fault runs only): the lock holder may be dead or
// the grant notification lost, so the transaction withdraws its
// request and retries instead of hanging forever.
func (s *System) blockForLock(t *txn) error {
	if cycle := s.detector.FindCycle(t.owner); cycle != nil {
		victim := lock.Victim(cycle)
		if victim == t.owner {
			s.cancelWaiting(t)
			return errDeadlock
		}
		s.abortVictim(victim)
	}
	timeout := s.params.LockWaitTimeout
	armed := s.faultsOn && timeout > 0
	if armed {
		t.proc.UnparkAfter(timeout)
	}
	t.proc.Park()
	if t.killed {
		return errKilled
	}
	if t.deadlock {
		return errDeadlock
	}
	if armed && s.stillWaiting(t.owner) {
		// Timer wake: the request was never granted.
		s.lockTimeouts++
		s.cancelWaiting(t)
		return errTimeout
	}
	// Otherwise the lock is held, even when the timer fired first: the
	// timer may have raced a direct wake in the same instant
	// (deduplicated by the park generation), or a wakeup message is
	// still in flight or was lost. The caller ends the wait, so a late
	// message is dropped.
	return nil
}

// stillWaiting reports whether the owner has an outstanding waiting
// request in any lock table.
func (s *System) stillWaiting(o lock.Owner) bool {
	for _, tbl := range s.tables {
		if tbl.Waiting(o) != nil {
			return true
		}
	}
	return false
}

// cancelWaiting removes t's queued lock requests from every table and
// answers the requests that became grantable.
func (s *System) cancelWaiting(t *txn) {
	for i, tbl := range s.tables {
		if tbl.Waiting(t.owner) != nil && s.answer(tbl.CancelWaiting(t.owner), i, t.node.id, t.proc.Continuation()) {
			t.proc.Park()
		}
	}
}

// abortVictim marks another waiting transaction as deadlock victim,
// cancels its queued request and wakes it so that it unwinds. The
// requests the cancellation granted are answered at the victim's node
// (a PCL table's at its serving node) in the next calendar slot, never
// through the victim's suspended process.
func (s *System) abortVictim(o lock.Owner) {
	vt := s.activeTxn(o)
	if vt == nil {
		return
	}
	vt.deadlock = true
	for i, tbl := range s.tables {
		if tbl.Waiting(o) != nil {
			s.answer(tbl.CancelWaiting(o), i, vt.node.id, sim.Continuation{})
		}
	}
	vt.proc.Unpark()
}

// activate registers t's attempt as running.
func (s *System) activate(t *txn) {
	i := t.owner.Index()
	if i >= len(s.active) {
		s.active = append(s.active, make([]*txn, i+1-len(s.active))...)
	}
	s.active[i] = t
	s.live++
}

// deactivate ends t's attempt's registration.
func (s *System) deactivate(t *txn) {
	s.active[t.owner.Index()] = nil
	s.live--
}

// activeTxn returns the running attempt of owner o, or nil.
func (s *System) activeTxn(o lock.Owner) *txn {
	if i := o.Index(); i < len(s.active) {
		if t := s.active[i]; t != nil && t.owner == o {
			return t
		}
	}
	return nil
}

// ResetStats starts the measurement interval: all device, node and
// message statistics are discarded (end of warm-up).
func (s *System) ResetStats() {
	s.statsStart = s.env.Now()
	s.gemDev.ResetStats()
	s.net.ResetStats()
	for _, g := range s.groups {
		g.ResetStats()
	}
	for _, n := range s.nodes {
		n.resetStats()
	}
	if s.engine != nil {
		s.engine.Res.ResetStats()
	}
	s.wbWrites, s.wbReadHits = 0, 0
	s.gemCacheHits, s.gemCacheReqs = 0, 0
	s.rtBatches = stats.NewBatchMeans(100)
	s.txnsKilled, s.txnsRetried, s.lockTimeouts = 0, 0, 0
	s.failovers = nil
	s.respPre.Reset()
	s.respDuring.Reset()
	s.respPost.Reset()
	if s.avail != nil {
		s.avail.resetMeasure(s.totalCommits())
	}
	s.attribBD.Reset()
	if s.attribBD != nil && s.sampling {
		// Re-base the windowed station counters: the per-station
		// integrals just restarted, so the next tick must not difference
		// against pre-warm-up values.
		s.prevStations = s.stationCounters()
	}
	if s.ctl != nil {
		s.ctl.resetStats()
	}
	if s.sampling {
		// Restart the sampling window so the first post-warm-up sample
		// does not see negative counter deltas.
		s.resetWindow()
	}
}

// stationCounters snapshots every queueing station of the system in a
// deterministic order (per-node CPU, GEM, lock engine, disk groups in
// file order, per-node log groups, per-node MPL gates). The order
// is load-bearing: windowed sampler deltas pair entries by index, and
// the emitted law instants must be byte-identical across -jobs levels.
func (s *System) stationCounters() []attrib.StationCounters {
	out := make([]attrib.StationCounters, 0, 4*len(s.nodes)+2+len(s.groups))
	for _, n := range s.nodes {
		out = append(out, n.cpu.Counters())
	}
	out = append(out, s.gemDev.Counters())
	if s.engine != nil {
		out = append(out, s.engine.Res.Counters())
	}
	for _, id := range s.sortedGroupIDs() {
		out = append(out, s.groups[id].DiskCounters())
	}
	for _, n := range s.nodes {
		out = append(out, n.logGroup.DiskCounters())
	}
	for _, n := range s.nodes {
		out = append(out, n.gate.counters())
	}
	return out
}

// StationLaws derives the operational-law view of every station over
// the measurement interval so far. Nil when attribution is off.
func (s *System) StationLaws() []attrib.Laws {
	if s.attribBD == nil {
		return nil
	}
	cs := s.stationCounters()
	out := make([]attrib.Laws, len(cs))
	for i, c := range cs {
		out[i] = attrib.Derive(c)
	}
	return out
}

// Metrics is the measurement snapshot of one simulation run.
type Metrics struct {
	SimTime time.Duration
	// CPUsPerNode echoes the configuration (used to derive capacity
	// figures from CPUSecondsPerTxn).
	CPUsPerNode int

	Commits    int64
	Aborts     int64
	Deadlocks  int64
	Throughput float64 // committed transactions per second

	// Concurrency-control engine accounting. Admitted counts every
	// execution attempt (first runs and restarts alike), so with faults
	// off Admitted = Commits + Aborts + still-active transactions and
	// Restarts = Aborts. CCAborts is the subset of aborts raised by the
	// engine itself (validation failures, late writes, write-write
	// conflicts); it stays zero under the native 2PL protocols.
	CCEngine          string
	Admitted          int64
	Restarts          int64
	CCAborts          int64
	CCValidations     int64
	CCValidationFails int64

	MeanResponseTime time.Duration
	// ResponseTimeHW95 is the 95% batch-means confidence half-width
	// around MeanResponseTime (batches of 100 transactions).
	ResponseTimeHW95 time.Duration
	P95ResponseTime  time.Duration
	MaxResponseTime  time.Duration
	// NormalizedResponseTime is the response time of an artificial
	// transaction performing the workload's mean number of database
	// accesses (the paper's metric for the trace workload).
	NormalizedResponseTime time.Duration
	MeanRefsPerTxn         float64
	MeanInputQueueWait     time.Duration

	CPUUtilization     []float64
	MeanCPUUtilization float64
	MaxCPUUtilization  float64
	// CPUSecondsPerTxn is the mean CPU consumption per committed
	// transaction (all overheads included); it determines the
	// achievable throughput at a target utilization (Fig. 4.6).
	CPUSecondsPerTxn float64

	GEMUtilization float64
	GEMPageAcc     int64
	GEMEntryAcc    int64
	GEMMeanWait    time.Duration

	// Lock engine statistics (CouplingLockEngine only).
	LockEngineUtilization float64
	MeanLockEngineWait    time.Duration

	// GEM write buffer statistics (MediumGEMWriteBuffer files).
	WriteBufferWrites   int64
	WriteBufferReadHits int64
	// GEM cache statistics (MediumGEMCache files).
	GEMCacheHitRatio float64

	ShortMessages  int64
	LongMessages   int64
	MessagesPerTxn float64

	LockRequests   int64
	LocalLockShare float64
	LockWaits      int64
	MeanLockWait   time.Duration

	Invalidations       int64
	InvalidationsPerTxn float64
	PageRequests        int64
	// PageRequestMisses counts page requests whose owner no longer
	// buffered the page (the requester fell back to storage).
	PageRequestMisses  int64
	PageRequestsPerTxn float64
	MeanPageReqDelay   time.Duration

	BufferHitRatio map[string]float64

	// ResponseTimeByType breaks the mean response time down by
	// transaction type (informative for trace workloads with widely
	// varying transaction classes).
	ResponseTimeByType map[int]time.Duration

	StorageReads    int64
	StorageWrites   int64
	ForceWrites     int64
	LogWrites       int64
	DiskUtilization map[string]float64
	DiskReadLatency map[string]time.Duration
	CacheHitRatio   map[string]float64

	BufferOverflows int64

	// Availability metrics (fault injection runs).
	TxnsKilled   int64 // in-flight transactions killed by node crashes
	TxnsRetried  int64 // killed or timed-out transactions resubmitted
	LockTimeouts int64 // lock waits aborted by LockWaitTimeout
	// MessagesDropped counts messages lost in transit or addressed to a
	// down node.
	MessagesDropped int64
	// Failovers describes each recovered crash: phase durations and
	// work counts.
	Failovers []FailoverStats
	// Response time of committed transactions before the first failure,
	// inside a failure/recovery window, and after recovery completed.
	MeanRTPreFailure     time.Duration
	MeanRTDuringRecovery time.Duration
	MeanRTPostRecovery   time.Duration
	// Availability SLO metrics from the windowed tracker (zero unless
	// faults were enabled). MeanTimeToFullThroughput averages the
	// per-failover TTFT over failovers whose throughput recrossed the
	// pre-crash baseline inside the measured interval.
	MeanTimeToFullThroughput time.Duration
	// P99Unavailability is the 99th percentile of the per-window
	// unavailability u = max(0, 1 - tput/baseline) over the measured
	// interval (0 = full throughput all the time, 1 = a window with no
	// commits at all).
	P99Unavailability float64
	// SLOAttainment is the fraction of measurement windows meeting the
	// 95%-of-baseline throughput SLO.
	SLOAttainment float64
	// AvailabilityWindows is the number of windows the SLO metrics are
	// computed over.
	AvailabilityWindows int64

	// Phases and Attribution point to one snapshot: the response-time
	// breakdown of committed transactions, nil when attribution is
	// off. Its per-phase means (Phases) and its per-resource means
	// (Attribution) each sum to MeanResponseTime by construction, so
	// each view's shares sum to one. DominantBottleneck names the
	// resource with the largest attributed share; StationLaws carries
	// the operational-law view of every queueing station over the
	// measured interval, and LawWarnings lists stations whose
	// Little's-law or utilization-law residual exceeded the configured
	// tolerance.
	Phases             *attrib.Breakdown
	Attribution        *attrib.Breakdown
	DominantBottleneck string
	DominantShare      float64
	StationLaws        []attrib.Laws
	LawWarnings        []string

	// Adaptive load control action counts (StartControl runs; all zero
	// for static allocation).
	CtlThrottles  int64
	CtlProbes     int64
	CtlReroutes   int64
	CtlMigrations int64
}

// Snapshot collects the metrics accumulated since the last ResetStats.
func (s *System) Snapshot() Metrics {
	m := Metrics{
		SimTime:         s.env.Now() - s.statsStart,
		CPUsPerNode:     s.params.CPUsPerNode,
		CPUUtilization:  make([]float64, len(s.nodes)),
		BufferHitRatio:  make(map[string]float64),
		DiskUtilization: make(map[string]float64),
		DiskReadLatency: make(map[string]time.Duration),
		CacheHitRatio:   make(map[string]float64),
	}
	elapsed := m.SimTime.Seconds()

	var rt stats.Series
	var inputWait stats.Series
	var lockWait stats.Series
	var pageDelay stats.Series
	var busy float64
	hist := stats.NewDurationHistogram()
	for i, n := range s.nodes {
		m.Commits += n.commits
		m.Aborts += n.aborts
		m.Invalidations += n.invalidations
		m.PageRequests += n.pageReqs
		m.PageRequestMisses += n.pageReqMiss
		m.LocalLockShare += float64(n.localLocks)
		m.LockRequests += n.localLocks + n.remoteLocks
		m.LockWaits += n.lockWaits
		m.Admitted += n.admitted
		m.Restarts += n.restarts
		m.CCAborts += n.ccAborts
		m.CCValidations += n.ccValidations
		m.CCValidationFails += n.ccValidationFails
		m.StorageReads += n.storageReads
		m.StorageWrites += n.storageWrites
		m.ForceWrites += n.forceWrites
		m.LogWrites += n.logWrites
		m.BufferOverflows += n.pool.Overflows()
		m.CPUUtilization[i] = n.cpu.Utilization()
		busy += n.cpu.BusySeconds()
		mergeSeries(&rt, &n.resp)
		mergeSeries(&inputWait, &n.inputWait)
		mergeSeries(&lockWait, &n.lockWaitTime)
		mergeSeries(&pageDelay, &n.pageReqDelay)
		m.MeanRefsPerTxn += float64(n.respRefs)
		n.respHistInto(hist)
	}
	m.Deadlocks = s.detector.Cycles()
	m.CCEngine = s.params.CC.String()
	if elapsed > 0 {
		m.Throughput = float64(m.Commits) / elapsed
	}
	m.MeanResponseTime = rt.MeanDuration()
	m.ResponseTimeHW95 = time.Duration(s.rtBatches.HalfWidth95() * float64(time.Second))
	m.MaxResponseTime = time.Duration(rt.Max() * float64(time.Second))
	m.P95ResponseTime = hist.QuantileDuration(0.95)
	m.MeanInputQueueWait = inputWait.MeanDuration()
	if m.Commits > 0 {
		m.MeanRefsPerTxn /= float64(m.Commits)
		m.CPUSecondsPerTxn = busy / float64(m.Commits)
		m.MessagesPerTxn = float64(s.net.ShortSent()+s.net.LongSent()) / float64(m.Commits)
		m.InvalidationsPerTxn = float64(m.Invalidations) / float64(m.Commits)
		m.PageRequestsPerTxn = float64(m.PageRequests) / float64(m.Commits)
	}
	// Normalized response time: the response time of an artificial
	// transaction performing the mean number of database accesses
	// (per-transaction response time per access, scaled to the mean
	// transaction size) — the paper's metric for trace workloads with
	// widely varying transaction sizes.
	var perRef stats.Series
	for _, n := range s.nodes {
		mergeSeries(&perRef, &n.respPerRef)
	}
	m.NormalizedResponseTime = time.Duration(perRef.Mean() * m.MeanRefsPerTxn * float64(time.Second))
	for i := range m.CPUUtilization {
		m.MeanCPUUtilization += m.CPUUtilization[i]
		if m.CPUUtilization[i] > m.MaxCPUUtilization {
			m.MaxCPUUtilization = m.CPUUtilization[i]
		}
	}
	m.MeanCPUUtilization /= float64(len(s.nodes))
	if m.LockRequests > 0 {
		m.LocalLockShare /= float64(m.LockRequests)
	}
	m.MeanLockWait = lockWait.MeanDuration()
	m.MeanPageReqDelay = pageDelay.MeanDuration()

	if s.engine != nil {
		m.LockEngineUtilization = s.engine.Res.Utilization()
		m.MeanLockEngineWait = s.engine.Res.MeanWait()
	}
	m.GEMUtilization = s.gemDev.Utilization()
	m.GEMPageAcc = s.gemDev.PageAccesses()
	m.GEMEntryAcc = s.gemDev.EntryAccesses()
	m.GEMMeanWait = s.gemDev.MeanWait()
	m.ShortMessages = s.net.ShortSent()
	m.LongMessages = s.net.LongSent()
	m.WriteBufferWrites = s.wbWrites
	m.WriteBufferReadHits = s.wbReadHits
	if s.gemCacheReqs > 0 {
		m.GEMCacheHitRatio = float64(s.gemCacheHits) / float64(s.gemCacheReqs)
	}

	// Per-type response times aggregated over nodes.
	byType := make(map[int]*stats.Series)
	for _, n := range s.nodes {
		for typ, series := range n.respByType {
			agg := byType[typ]
			if agg == nil {
				agg = &stats.Series{}
				byType[typ] = agg
			}
			mergeSeries(agg, series)
		}
	}
	m.ResponseTimeByType = make(map[int]time.Duration, len(byType))
	for typ, series := range byType {
		if series.Count() > 0 {
			m.ResponseTimeByType[typ] = series.MeanDuration()
		}
	}

	// Per-file buffer hit ratios aggregated over nodes.
	for i := range s.db.Files {
		f := &s.db.Files[i]
		var hits, total int64
		for _, n := range s.nodes {
			h, t := n.pool.HitCounts(i)
			hits += h
			total += t
		}
		if total > 0 {
			m.BufferHitRatio[f.Name] = float64(hits) / float64(total)
		}
	}
	for id, g := range s.groups {
		f := s.db.File(id)
		m.DiskUtilization[f.Name] = g.DiskUtilization()
		m.DiskReadLatency[f.Name] = g.MeanReadLatency()
		if g.Cache() != nil {
			m.CacheHitRatio[f.Name] = g.ReadHitRatio()
		}
	}
	for _, n := range s.nodes {
		m.DiskUtilization[fmt.Sprintf("LOG%d", n.id)] = n.logGroup.DiskUtilization()
	}

	m.TxnsKilled = s.txnsKilled
	m.TxnsRetried = s.txnsRetried
	m.LockTimeouts = s.lockTimeouts
	m.MessagesDropped = s.net.Dropped()
	m.Failovers = append([]FailoverStats(nil), s.failovers...)
	if s.avail != nil {
		s.avail.fill(&m)
	}
	if s.attribBD != nil {
		b := *s.attribBD
		m.Attribution, m.Phases = &b, &b
		dom, share := b.Dominant()
		m.DominantBottleneck = dom.String()
		m.DominantShare = share
		m.StationLaws = s.StationLaws()
		for _, l := range m.StationLaws {
			m.LawWarnings = append(m.LawWarnings, l.Check(attrib.DefaultTolerance)...)
		}
	}
	m.MeanRTPreFailure = s.respPre.MeanDuration()
	m.MeanRTDuringRecovery = s.respDuring.MeanDuration()
	m.MeanRTPostRecovery = s.respPost.MeanDuration()
	if s.ctl != nil {
		m.CtlThrottles = s.ctl.throttles
		m.CtlProbes = s.ctl.probes
		m.CtlReroutes = s.ctl.reroutes
		m.CtlMigrations = s.ctl.migrations
	}
	return m
}

// mergeSeries folds src into dst by moments (sufficient for means and
// counts; extremes merge exactly).
func mergeSeries(dst, src *stats.Series) {
	if src.Count() == 0 {
		return
	}
	dst.Merge(src)
}
