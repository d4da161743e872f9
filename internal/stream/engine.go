package stream

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// Config tunes the streaming engine. The flow policies are the batch
// pipeline's; equality with pipeline.BuildModel holds per policy set.
type Config struct {
	// Workers bounds the goroutines a snapshot's chain rebuild fans out
	// over (pipeline.ForEach); ≤ 0 selects GOMAXPROCS.
	Workers int
	// Mining, Merge and Calibration are the paper-flow tunables.
	Mining      mining.Config
	Merge       psm.MergePolicy
	Calibration psm.CalibrationPolicy
	// SkipCalibration disables the Hamming-distance regression.
	SkipCalibration bool
	// Inputs names the primary-input signals (calibration regressor and
	// the estimate endpoint). Unknown names fail the first session open.
	Inputs []string
	// MaxRecords caps the instants one session may append (0 = unlimited):
	// the ingest-side memory bound against hostile streams.
	MaxRecords int
	// MaxOpenSessions caps concurrently open sessions (0 = unlimited).
	MaxOpenSessions int
	// Registry receives the engine's metrics; nil gives the engine a
	// private registry. Sharing one registry across engines in a process
	// is the caller's choice — the counters are named per concern, not
	// per engine.
	Registry *obs.Registry
	// JoinMemoEntries bounds the mergeability-verdict memo the live
	// incremental join (LiveJoin) keeps across snapshots — the engine's,
	// or a shard.Coordinator's when the engine runs as a shard (≤ 0
	// selects the psm package default). The memo resets wholesale at the
	// bound; the model is unaffected either way (memoized verdicts are
	// exact).
	JoinMemoEntries int
}

// DefaultConfig returns the paper-reproduction policies with serving-
// grade ingestion bounds.
func DefaultConfig() Config {
	return Config{
		Mining:          mining.DefaultConfig(),
		Merge:           psm.DefaultMergePolicy(),
		Calibration:     psm.DefaultCalibrationPolicy(),
		MaxRecords:      1 << 22,
		MaxOpenSessions: 256,
	}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// sigRun is one maximal run of identical candidate-atom signatures: the
// session's compact storage. Runs replace the raw logic vectors — per
// instant the engine keeps only the power value and the input Hamming
// distance (8 bytes each), plus one packed bitset per signature change.
type sigRun struct {
	sig []uint64
	n   int
}

// sessionData is the per-trace evidence a snapshot rebuilds from.
type sessionData struct {
	runs  []sigRun
	power []float64
	hd    []float64
	rows  int
}

// Metrics is a point-in-time snapshot of the engine's counters. All
// fields except RecordsIngested are read in one critical section of the
// engine lock — the same epoch as the model cache — so a /metrics
// scrape cannot observe a half-applied session completion.
// RecordsIngested is the one deliberately lock-free counter: it counts
// appends the moment they land (including still-open sessions, rolled
// back on abort), so it can run ahead of TracesCompleted but never
// behind it.
type Metrics struct {
	RecordsIngested int64
	OpenSessions    int
	TracesCompleted int
	Snapshots       int
	// StatesPooled / StatesServed are the last snapshot's pre-join and
	// post-join state counts; StatesMerged is their difference (how much
	// the join collapsed).
	StatesPooled int
	StatesServed int
	StatesMerged int
	// Rebuilds counts resets of the live join: the kept atom set moved
	// (or, under a shard.Coordinator, a shard below the last folded one
	// gained a session) and every chain is folded again. A shard
	// engine's own Rebuilds counts its chain-cache rebuilds.
	Rebuilds int
	// DeltaSnapshots counts snapshots that only folded the sessions
	// completed since the previous one and ran the collapse over the kept
	// states instead of the whole pool. Rebuilds + DeltaSnapshots equals
	// the successful snapshot count unless a reset was followed by a
	// failed snapshot.
	DeltaSnapshots int
	// JoinNanos is the total time spent inside Snapshot; JoinLatency is
	// its distribution (see LatencyBuckets). Failed and cancelled
	// snapshots are included — an operator alerting on join latency
	// must see the time burned before an abort too.
	JoinNanos   int64
	JoinLatency []int
}

// LatencyBuckets are the upper bounds (exclusive, in milliseconds) of
// the join latency histogram; the overflow count follows the last
// bucket. The geometry is exponential from 1µs so the sub-millisecond
// joins a warm epoch cache produces spread over real buckets instead of
// piling into the first one.
var LatencyBuckets = obs.ExponentialBuckets(0.001, 4, 12)

// Engine ingests trace sessions and serves live model snapshots.
//
// Equality with the batch flow is the design constraint, inherited from
// internal/pipeline and extended in time: after any set of sessions has
// completed — in whatever record interleaving — Snapshot returns a model
// whose JSON and DOT exports are byte-identical to pipeline.BuildModel
// over the same traces listed in session-completion order. The pieces:
//
//   - mining decisions are made by the exact batch code path
//     (mining.SelectIndices) on statistics accumulated record by record
//     (exact integer counts, so per-session partials fold losslessly);
//   - each record is reduced on arrival to its packed candidate-atom
//     truth bitset (lossless for every downstream mining decision), its
//     power value and its input Hamming distance; the raw valuation is
//     discarded immediately — the memory the daemon holds per instant is
//     16 bytes plus amortized run-length-encoded bitsets;
//   - proposition ids are interned sequentially in trace order
//     (mining.MineParallel's replay strategy), chains are built by the
//     online XU segmenter (bit-identical to psm.Generate) and simplified
//     with the batch psm.Simplify;
//   - the live model is a persistent incremental join (LiveJoin over a
//     psm.Joiner): each completed chain is folded once through the
//     batch join's greedy clustering pass — a left fold, so folding
//     chains in completion order equals pooling them all and clustering
//     from scratch — and each Snapshot cheaply clones the fold's kept
//     states and runs only the order-dependent fixpoint on the clone,
//     followed by the batch calibration over the stored power/HD
//     series. Steady-state snapshot cost therefore scales with the
//     number of kept states and the new evidence since the last
//     snapshot, not with the total pooled states (pinned by
//     BenchmarkSnapshotSteadyState).
//
// The kept atom set depends on global statistics, so a completed session
// can invalidate earlier decisions; the engine detects this by comparing
// kept-atom indices per snapshot (an epoch) and rebuilds all chains from
// the stored bitsets only then, folding incrementally otherwise. An
// epoch change resets the live join wholesale — fold, verdict memo and
// its accounting together (see psm.Joiner.Reset) — so everything the
// joiner reports describes the current epoch.
//
// An engine can also run as one shard of a shard.Coordinator: the
// coordinator imposes the globally-selected kept atom set through
// ExportChains instead of letting the engine select its own, and folds
// the shards' new chains into its own LiveJoin — the same incremental
// join, fed in shard-major order. The epoch cache works identically
// either way — it is keyed on whatever kept set the caller brings.
type Engine struct {
	cfg        Config
	candidates []mining.Atom // fixed per schema

	// Registry-backed instruments (handles resolved once at construction).
	// mRecords is the lock-free append counter; everything else mutates
	// under mu only.
	mRecords *obs.Counter
	mTraces  *obs.Counter
	gOpen    *obs.Gauge

	mu        sync.Mutex
	schema    []trace.Signal
	inputCols []int
	stats     []mining.AtomStats // over completed sessions
	totalRows int                // over completed sessions
	openCount int
	completed []*sessionData // trace order == completion order
	// epoch cache
	keptIdx []int
	dict    *mining.Dictionary
	chains  []*psm.Chain // per completed session
	live    *LiveJoin    // incremental join over chains[:live.Folded()]
}

// NewEngine returns an engine with no schema yet: the first session's
// header fixes it, exactly like the first trace of a batch run fixes the
// miner's schema.
func NewEngine(cfg Config) *Engine {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Engine{
		cfg:      cfg,
		live:     NewLiveJoin(cfg, reg),
		mRecords: reg.Counter("psmd_records_ingested_total"),
		mTraces:  reg.Counter("psmd_traces_completed_total"),
		gOpen:    reg.Gauge("psmd_sessions_open"),
	}
}

// Session is one open trace being streamed in. It is single-producer:
// Append/Close/Abort must not be called concurrently on the same session,
// but any number of sessions proceed in parallel without contending on
// the engine (only Open and Close take the engine lock).
type Session struct {
	e      *Engine
	obs    *mining.Observer
	data   *sessionData
	prev   []logic.Vector
	buf    []uint64
	batch  []uint64 // AppendBatch signature scratch, reused
	schema []trace.Signal
	done   bool
}

// Open starts a session for a trace over the given schema. The first
// session fixes the engine's schema; later sessions must match it
// (mining requires a uniform schema across the training set).
func (e *Engine) Open(sigs []trace.Signal) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.MaxOpenSessions > 0 && e.openCount >= e.cfg.MaxOpenSessions {
		return nil, fmt.Errorf("stream: %d %w (limit %d)", e.openCount, ErrSessionLimit, e.cfg.MaxOpenSessions)
	}
	if e.schema == nil {
		if len(sigs) == 0 {
			return nil, fmt.Errorf("stream: empty signal schema")
		}
		cols, err := inputColumns(sigs, e.cfg.Inputs)
		if err != nil {
			return nil, err
		}
		e.schema = append([]trace.Signal(nil), sigs...)
		e.inputCols = cols
		e.candidates = mining.CandidateAtoms(e.schema)
		e.stats = make([]mining.AtomStats, len(e.candidates))
	} else if !slices.Equal(e.schema, sigs) {
		return nil, fmt.Errorf("stream: session schema differs from the engine's (%d signals)", len(e.schema))
	}
	e.openCount++
	e.gOpen.Set(float64(e.openCount))
	return &Session{
		e:      e,
		obs:    mining.NewObserver(e.candidates),
		data:   &sessionData{},
		schema: e.schema,
	}, nil
}

// InputCols returns the primary-input column indices (for the estimator).
func (e *Engine) InputCols() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.inputCols...)
}

// Append consumes one instant: the valuation row and its reference power.
// The row is reduced to its candidate bitset, power and input-HD samples
// and is not retained.
func (s *Session) Append(row []logic.Vector, power float64) error {
	if s.done {
		return fmt.Errorf("stream: append to a closed session")
	}
	if max := s.e.cfg.MaxRecords; max > 0 && s.data.rows >= max {
		return fmt.Errorf("stream: session exceeds the %d-record limit", max)
	}
	if len(row) != len(s.schema) {
		return fmt.Errorf("stream: row has %d values, schema %d signals", len(row), len(s.schema))
	}
	for i, v := range row {
		if v.Width() != s.schema[i].Width {
			return fmt.Errorf("stream: signal %q width %d, value width %d", s.schema[i].Name, s.schema[i].Width, v.Width())
		}
	}

	s.buf = s.obs.Observe(row, s.buf)
	d := s.data
	if n := len(d.runs); n > 0 && slices.Equal(d.runs[n-1].sig, s.buf) {
		d.runs[n-1].n++
	} else {
		d.runs = append(d.runs, sigRun{sig: append([]uint64(nil), s.buf...), n: 1})
	}
	d.power = append(d.power, power)

	hd := 0.0
	if s.prev != nil {
		acc := 0
		for _, c := range s.e.inputCols {
			acc += row[c].HammingDistance(s.prev[c])
		}
		hd = float64(acc)
	}
	d.hd = append(d.hd, hd)
	if s.prev == nil {
		s.prev = make([]logic.Vector, len(row))
	}
	copy(s.prev, row)

	d.rows++
	s.e.mRecords.Inc()
	return nil
}

// AppendBatch consumes a batch of instants in one call, reducing their
// atom signatures together (mining.Observer.ObserveBatch) and touching
// the session's aggregates once instead of per record. The resulting
// session state is byte-identical to appending the rows one by one —
// pinned by TestAppendBatchMatchesSequential — but the batch is
// validated up front and appended atomically: on error nothing is
// appended.
//
// Row vectors are not retained beyond the NEXT AppendBatch/Append call:
// the last row of the batch stays referenced as the input-HD history
// until the following call replaces it. Arena-backed callers therefore
// double-buffer two arenas (see serve.handleTraces and
// shard.Session.AppendLines).
func (s *Session) AppendBatch(rows [][]logic.Vector, powers []float64) error {
	if len(rows) != len(powers) {
		return fmt.Errorf("stream: batch has %d rows, %d powers", len(rows), len(powers))
	}
	if len(rows) == 0 {
		return nil
	}
	if s.done {
		return fmt.Errorf("stream: append to a closed session")
	}
	if max := s.e.cfg.MaxRecords; max > 0 && s.data.rows+len(rows) > max {
		return fmt.Errorf("stream: session exceeds the %d-record limit", max)
	}
	for _, row := range rows {
		if len(row) != len(s.schema) {
			return fmt.Errorf("stream: row has %d values, schema %d signals", len(row), len(s.schema))
		}
		for i, v := range row {
			if v.Width() != s.schema[i].Width {
				return fmt.Errorf("stream: signal %q width %d, value width %d", s.schema[i].Name, s.schema[i].Width, v.Width())
			}
		}
	}

	words := mining.SigWords(s.obs.NumAtoms())
	s.batch = s.obs.ObserveBatch(rows, s.batch)
	d := s.data
	for k := range rows {
		sig := s.batch[k*words : (k+1)*words]
		if n := len(d.runs); n > 0 && slices.Equal(d.runs[n-1].sig, sig) {
			d.runs[n-1].n++
		} else {
			d.runs = append(d.runs, sigRun{sig: append([]uint64(nil), sig...), n: 1})
		}
	}
	d.power = append(d.power, powers...)

	for k, row := range rows {
		prevRow := s.prev
		if k > 0 {
			prevRow = rows[k-1]
		}
		hd := 0.0
		if prevRow != nil {
			acc := 0
			for _, c := range s.e.inputCols {
				acc += row[c].HammingDistance(prevRow[c])
			}
			hd = float64(acc)
		}
		d.hd = append(d.hd, hd)
	}
	if s.prev == nil {
		s.prev = make([]logic.Vector, len(s.schema))
	}
	copy(s.prev, rows[len(rows)-1])

	d.rows += len(rows)
	s.e.mRecords.Add(int64(len(rows)))
	return nil
}

// Rows returns the number of records appended so far.
func (s *Session) Rows() int { return s.data.rows }

// Close completes the session: its trace joins the training set at the
// next index (completion order is trace order) and its statistics fold
// into the global mining decision. An empty session is an error — the
// batch miner rejects empty traces too — and is discarded.
func (s *Session) Close() (traceIdx int, err error) {
	if s.done {
		return 0, fmt.Errorf("stream: session closed twice")
	}
	s.done = true
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.openCount--
	e.gOpen.Set(float64(e.openCount))
	if s.data.rows == 0 {
		return 0, fmt.Errorf("stream: session is empty")
	}
	mining.MergeStats(e.stats, s.obs.Stats())
	e.totalRows += s.data.rows
	e.completed = append(e.completed, s.data)
	e.mTraces.Inc()
	return len(e.completed) - 1, nil
}

// Abort discards the session (client disconnect mid-upload): nothing it
// streamed reaches the model.
func (s *Session) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.e.mu.Lock()
	s.e.openCount--
	s.e.gOpen.Set(float64(s.e.openCount))
	s.e.mRecords.Add(-int64(s.data.rows))
	s.e.mu.Unlock()
}

// Snapshot materializes the current model over every completed session:
// byte-identical to pipeline.BuildModel over the same traces. Cancelling
// ctx aborts the chain fan-out with ctx.Err().
func (e *Engine) Snapshot(ctx context.Context) (*psm.Model, error) {
	ctx, span, end := e.live.Start(ctx)
	defer end()
	e.mu.Lock()
	defer e.mu.Unlock()

	if len(e.completed) == 0 {
		return nil, fmt.Errorf("stream: %w", ErrNoTraces)
	}
	idx := mining.SelectIndices(e.candidates, e.stats, e.totalRows, e.cfg.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("stream: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(e.candidates), e.totalRows)
	}
	if err := e.ensureEpoch(ctx, idx); err != nil {
		return nil, err
	}
	hds, pws := e.series()
	return e.live.Serve(ctx, span, e.chains[e.live.Folded():], e.dict, hds, pws), nil
}

// series returns the completed sessions' input-HD and power series in
// completion order (the calibration evidence). The caller holds e.mu.
func (e *Engine) series() (hds, pws [][]float64) {
	hds = make([][]float64, len(e.completed))
	pws = make([][]float64, len(e.completed))
	for i, d := range e.completed {
		hds[i], pws[i] = d.hd, d.power
	}
	return hds, pws
}

// ensureEpoch brings the epoch cache — dictionary and per-session
// chains — up to date for the kept atom set idx, rebuilding everything
// when idx differs from the cached epoch's. The caller holds e.mu and
// brings whatever kept set governs it: Snapshot selects the engine's
// own (local mining statistics), a shard coordinator imposes the
// globally selected one through ExportChains. A rebuild resets the live
// join with the cache, so its fold and rebuild count always describe
// the cached chains; only Snapshot folds them.
func (e *Engine) ensureEpoch(ctx context.Context, idx []int) error {
	if !slices.Equal(idx, e.keptIdx) {
		// Epoch change: the new evidence moved the kept atom set, so every
		// proposition id and chain is void. Rebuild from the stored
		// bitsets — the only path that is not incremental.
		e.keptIdx = append([]int(nil), idx...)
		e.dict = mining.NewDictionary(e.schema, e.candidates, idx)
		e.chains = nil
		e.live.Reset()
	}

	// Sequential phase: intern new sessions' run signatures in trace
	// order (the batch replay order).
	first := len(e.chains)
	propIDs := make([][]int, len(e.completed))
	for i := first; i < len(e.completed); i++ {
		propIDs[i] = propIDsOf(e.dict, e.keptIdx, e.completed[i])
	}

	// Parallel phase: per-session segmentation + Simplify over the
	// pipeline pool.
	newChains := make([]*psm.Chain, len(e.completed)-first)
	err := pipeline.ForEach(ctx, e.cfg.workers(), len(newChains), func(wctx context.Context, k int) error {
		i := first + k
		newChains[k] = chainOfSession(wctx, e.dict, propIDs[i], i, e.completed[i], e.cfg.Merge)
		return nil
	})
	if err != nil {
		// The fan-out is pure; dropping the partial results keeps the
		// cache consistent (they rebuild on the next snapshot).
		return err
	}
	for _, c := range newChains {
		if c == nil {
			// Mirror the batch generator's hard error: a trace too short
			// to expose a temporal pattern fails the whole build there.
			return fmt.Errorf("stream: trace %d: proposition trace too short to expose a temporal pattern",
				len(e.chains))
		}
		e.chains = append(e.chains, c)
	}
	return nil
}

// Metrics returns the current counters. Everything except
// RecordsIngested is captured in one critical section of the engine
// lock — the epoch the model cache lives under — so a concurrent
// session completion either shows up in full or not at all (see the
// Metrics type).
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.live.Metrics()
	m.RecordsIngested = e.mRecords.Value()
	m.OpenSessions = e.openCount
	m.TracesCompleted = len(e.completed)
	return m
}

// Provenance re-derives every mergeability decision of the current
// model — the audit trail behind GET /v1/provenance — by replaying the
// full build (fresh dictionary, per-session simplify, pooled collapse)
// with a recording merger attached. The replay runs under the engine
// lock but never touches the epoch cache, so serving provenance cannot
// perturb snapshot incrementality; and because it follows the exact
// batch order (sessions in completion order, one sequential collapse),
// the decisions equal `psmreport provenance` over the same traces.
func (e *Engine) Provenance(ctx context.Context) ([]obs.MergeDecision, error) {
	ctx, span := obs.Start(ctx, "provenance")
	defer span.End()
	e.mu.Lock()
	defer e.mu.Unlock()

	if len(e.completed) == 0 {
		return nil, fmt.Errorf("stream: %w", ErrNoTraces)
	}
	idx := mining.SelectIndices(e.candidates, e.stats, e.totalRows, e.cfg.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("stream: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(e.candidates), e.totalRows)
	}
	dict := mining.NewDictionary(e.schema, e.candidates, idx)

	log := obs.NewProvenanceLog()
	ctx = obs.WithProvenance(ctx, log)
	chains, err := e.provenanceChainsLocked(ctx, idx, dict, 0)
	if err != nil {
		return nil, err
	}
	psm.JoinPooledCtx(ctx, psm.Pool(chains), e.cfg.Merge)
	span.SetAttr("decisions", log.Len())
	return log.Decisions(), nil
}

func inputColumns(sigs []trace.Signal, names []string) ([]int, error) {
	var cols []int
	for _, name := range names {
		col := -1
		for i, s := range sigs {
			if s.Name == name {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("stream: input signal %q not in schema", name)
		}
		cols = append(cols, col)
	}
	return cols, nil
}
