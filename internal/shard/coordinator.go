package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// Config tunes the coordinator.
type Config struct {
	// Shards is the engine count; ≤ 0 selects 1.
	Shards int
	// Stream configures every shard engine identically. Stream.Registry
	// is ignored: each shard gets a private registry (per-engine gauges
	// must not collide), and the coordinator's own registry (Registry)
	// carries the fleet-level instruments. Stream.MaxOpenSessions is a
	// PER-SHARD cap; the effective fleet cap is Shards times it.
	Stream stream.Config
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 1
}

// Coordinator runs N shard engines as one logical model. It is a router,
// not a pipeline: Open picks a session's shard by consistent hash on its
// id and opens a stream.Session on that shard's engine, and every append,
// Close and Abort then runs in the caller's goroutine — each upload
// parses and reduces in its own handler, exactly as on one engine.
// Snapshot joins the shards back into one model that is byte-identical
// to a single engine fed the same sessions in canonical order —
// shard-major: all of shard 0's sessions in their completion order, then
// shard 1's, and so on. The join is the engine's own incremental one
// (stream.LiveJoin), fed only the sessions completed since the previous
// snapshot.
type Coordinator struct {
	cfg    Config
	ring   *ring
	shards []*shard
	reg    *obs.Registry

	mShed *obs.Counter // fleet-wide open-session-cap refusals

	// cut orders session completions against fleet reads: Session.Close
	// holds it shared, Snapshot and Provenance hold it exclusively while
	// they read the shards' statistics and chains, so every shard's
	// statistics, chains and calibration series describe one completed-
	// session prefix. (Cross-shard skew is harmless: any union of
	// per-shard prefixes is a valid session set, and the model is pinned
	// to equal a single engine over precisely that set.)
	cut sync.RWMutex

	// Schema state: the coordinator pins one global schema (mining
	// requires a uniform training schema) before any session reaches a
	// shard, exactly like a single engine's first Open fixes its schema.
	mu         sync.Mutex
	schema     []trace.Signal
	inputCols  []int
	candidates []mining.Atom
	autoID     int64

	// Cross-shard fold state, serialized by snapMu: the live join over
	// the shards' chains in shard-major order (its accounting is the
	// fleet's snapshot accounting — the shard engines never join), the
	// global kept atom set and dictionary the chains are remapped into,
	// each shard's local→global proposition table and each shard's
	// folded session count. See Snapshot for when they reset.
	snapMu  sync.Mutex
	live    *stream.LiveJoin
	keptIdx []int
	gdict   *mining.Dictionary
	props   [][]int
	folded  []int
}

// shard is one engine plus its refusal counter.
type shard struct {
	idx   int
	eng   *stream.Engine
	mShed *obs.Counter // this shard's open-session-cap refusals
}

// New builds a coordinator over cfg.Shards engines. Its registry carries
// the fleet's ingest totals (psmd_records_ingested_total,
// psmd_traces_completed_total, psmd_sessions_open), read from Metrics at
// every scrape, next to the snapshot and refusal instruments.
func New(cfg Config) *Coordinator {
	reg := obs.NewRegistry()
	n := cfg.shards()
	c := &Coordinator{
		cfg:   cfg,
		ring:  newRing(n),
		reg:   reg,
		live:  stream.NewLiveJoin(cfg.Stream, reg),
		mShed: reg.Counter("psmd_shed_total"),
	}
	for i := 0; i < n; i++ {
		scfg := cfg.Stream
		scfg.Registry = nil // private per-engine registry; see Config.Stream
		c.shards = append(c.shards, &shard{
			idx:   i,
			eng:   stream.NewEngine(scfg),
			mShed: reg.Counter(fmt.Sprintf("psmd_shard%d_shed_total", i)),
		})
	}
	reg.CounterFunc("psmd_records_ingested_total", func() int64 { return c.Metrics().RecordsIngested })
	reg.CounterFunc("psmd_traces_completed_total", func() int64 { return int64(c.Metrics().TracesCompleted) })
	reg.GaugeFunc("psmd_sessions_open", func() float64 { return float64(c.Metrics().OpenSessions) })
	reg.GaugeFunc("psmd_shard_skew", func() float64 { return Skew(c.ShardMetrics()) })
	return c
}

// Close releases the coordinator. It runs no goroutines, so there is
// nothing to stop; Close exists so owners can defer it unconditionally.
func (c *Coordinator) Close() {}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// JoinLatencyWindow returns the cross-shard join latency distribution
// over the most recent sliding window (the /v1/status feed).
func (c *Coordinator) JoinLatencyWindow() obs.HistogramSnapshot { return c.live.JoinLatencyWindow() }

// InputCols returns the primary-input column indices.
func (c *Coordinator) InputCols() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.inputCols...)
}

// ShardOf returns the shard a session id routes to (tests, ops).
func (c *Coordinator) ShardOf(id string) int { return c.ring.shardOf(id) }

// Session is one open trace on its shard's engine. Like stream.Session
// it is single-producer, and every call runs synchronously in the
// caller's goroutine: an error is the call's own, and a failed append
// leaves the session open for the caller to Abort.
type Session struct {
	c    *Coordinator
	sh   *shard
	sess *stream.Session
	sigs []trace.Signal

	// AppendLines decode state, reused across batches. The two arenas
	// alternate: the engine keeps a batch's last row as input-HD history
	// until the next batch lands, so a batch must never decode into the
	// arena the previous one used.
	arenas [2]logic.Arena
	epoch  int
	rowMem []logic.Vector
	rows   [][]logic.Vector
	pows   []float64
	raw    stream.RawRecord
	parser stream.LineParser
}

// Open routes a session to its shard by consistent hash on id (an empty
// id is assigned one) and opens it on that shard's engine. The first
// Open pins the coordinator's global schema; later sessions must match
// it. When the shard's open-session cap refuses the session, the
// stream.ErrSessionLimit error is counted as a shed in Shed and in the
// shard's metrics row. A cancelled ctx opens nothing.
func (c *Coordinator) Open(ctx context.Context, id string, sigs []trace.Signal) (*Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.schema == nil {
		if len(sigs) == 0 {
			c.mu.Unlock()
			return nil, fmt.Errorf("stream: empty signal schema")
		}
		cols, err := stream.InputColumns(sigs, c.cfg.Stream.Inputs)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.schema = append([]trace.Signal(nil), sigs...)
		c.inputCols = cols
		c.candidates = mining.CandidateAtoms(c.schema)
	} else if !slices.Equal(c.schema, sigs) {
		c.mu.Unlock()
		return nil, fmt.Errorf("stream: session schema differs from the engine's (%d signals)", len(c.schema))
	}
	if id == "" {
		c.autoID++
		id = fmt.Sprintf("session-%d", c.autoID)
	}
	schema := c.schema
	c.mu.Unlock()

	sh := c.shards[c.ring.shardOf(id)]
	ss, err := sh.eng.Open(schema)
	if err != nil {
		if errors.Is(err, stream.ErrSessionLimit) {
			sh.mShed.Inc()
			c.mShed.Inc()
		}
		return nil, err
	}
	return &Session{c: c, sh: sh, sess: ss, sigs: schema}, nil
}

// Shard returns the shard index the session routed to.
func (s *Session) Shard() int { return s.sh.idx }

// Rows returns the number of records appended so far.
func (s *Session) Rows() int { return s.sess.Rows() }

// AppendRows reduces a decoded batch on the session's shard engine
// (stream.Session.AppendBatch). The engine keeps the batch's last row as
// input-HD history until the next append, so arena-backed callers
// double-buffer their arenas.
func (s *Session) AppendRows(rows [][]logic.Vector, powers []float64) error {
	return s.sess.AppendBatch(rows, powers)
}

// AppendLines parses framed NDJSON record lines (stream.LineParser +
// DecodeRowArena) and reduces them in one AppendRows. buf holds records
// newline-terminated record lines and is not retained; firstLine is the
// 1-based position of buf's first line in the upload (error-text
// accounting, the header is line 1). On error nothing of buf is
// appended.
func (s *Session) AppendLines(buf []byte, records, firstLine int) error {
	a := &s.arenas[s.epoch&1]
	a.Reset()
	s.epoch++
	if need := records * len(s.sigs); cap(s.rowMem) < need {
		s.rowMem = make([]logic.Vector, need)
	}
	s.rows, s.pows = s.rows[:0], s.pows[:0]
	lineno := firstLine
	for len(buf) > 0 {
		var line []byte
		line, buf, _ = bytes.Cut(buf, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		if err := s.parser.Parse(line, lineno, &s.raw); err != nil {
			return err
		}
		if s.raw.P == nil {
			return fmt.Errorf("stream: record %d: training records need a power value \"p\"",
				s.sess.Rows()+len(s.rows)+1)
		}
		k := len(s.rows) * len(s.sigs)
		row, err := stream.DecodeRowArena(s.sigs, &s.raw, a, s.rowMem[k:k:k+len(s.sigs)])
		if err != nil {
			return err
		}
		s.rows = append(s.rows, row)
		s.pows = append(s.pows, *s.raw.P)
		lineno++
	}
	return s.AppendRows(s.rows, s.pows)
}

// Close completes the session on its shard and returns the shard-local
// trace index and the record count that landed. A cancelled ctx aborts
// the session instead: nothing of a departed caller reaches the model.
func (s *Session) Close(ctx context.Context) (traceIdx, rows int, err error) {
	if err := ctx.Err(); err != nil {
		s.Abort()
		return 0, 0, err
	}
	rows = s.sess.Rows()
	s.c.cut.RLock()
	defer s.c.cut.RUnlock()
	traceIdx, err = s.sess.Close()
	return traceIdx, rows, err
}

// Abort discards the session (client disconnect mid-upload): nothing it
// streamed reaches the model. Aborting twice, or after Close, is a no-op.
func (s *Session) Abort() { s.sess.Abort() }
