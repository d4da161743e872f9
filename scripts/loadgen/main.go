// Command loadgen sweeps the sharded-ingest scaling comparison and
// writes BENCH_shard.json: for each shard count it streams S identical
// concurrent sessions of synthetic NDJSON through a shard.Coordinator
// (the path psmd runs under -shards=N, each session parsing and reducing
// in its own goroutine) and records the min-of-N aggregate ingest wall
// clock, the records/s, the speedup over the same S sessions ingested
// sequentially into one engine (the reference arm), and whether the
// final model deep-equals that reference — the byte-stability claim,
// re-checked on every sweep. The committed file also records GOMAXPROCS:
// the >=3x gate at 4 shards (TestShardScalingGate, `make bench-shard`)
// is only enforced where the host has the parallel headroom to make a
// wall-clock claim honest; a smaller host records the measured ratio and
// marks the gate unenforced.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// point is one sweep row of the emitted JSON.
type point struct {
	Shards       int     `json:"shards"`
	WallNs       int64   `json:"wall_ns"`
	AggRecPerSec float64 `json:"agg_rec_per_sec"`
	SpeedupX     float64 `json:"speedup_x"`
	ModelEqual   bool    `json:"model_equal"`
	Shed         int64   `json:"shed"`
}

type report struct {
	Description       string  `json:"description"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	SequentialWallNs  int64   `json:"sequential_wall_ns"`
	Rounds            int     `json:"rounds"`
	Sessions          int     `json:"sessions"`
	RecordsPerSession int     `json:"records_per_session"`
	Batch             int     `json:"batch"`
	Points            []point `json:"points"`
	GateThresholdX    float64 `json:"gate_threshold_x"`
	GateEnforced      bool    `json:"gate_enforced"`
	GateNote          string  `json:"gate_note"`
}

func schema() []trace.Signal {
	return []trace.Signal{
		{Name: "en", Width: 1},
		{Name: "mode", Width: 8},
		{Name: "addr", Width: 16},
		{Name: "ctr", Width: 32},
		{Name: "data", Width: 64},
		{Name: "bus", Width: 128},
	}
}

func payload(n int, seed uint64) []byte {
	sigs := schema()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	check(enc.WriteHeader(stream.HeaderFor(sigs, []int{0, 1})))
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	row := make([]logic.Vector, len(sigs))
	for i := 0; i < n; i++ {
		for k, sig := range sigs {
			if sig.Width <= 64 {
				row[k] = logic.FromUint64(sig.Width, next())
			} else {
				v, err := logic.ParseHex(sig.Width, fmt.Sprintf("%016x%016x", next(), next()))
				check(err)
				row[k] = v
			}
		}
		check(enc.WriteRow(row, float64(next()%4096)/64))
	}
	check(enc.Flush())
	return buf.Bytes()
}

func config() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.Inputs = []string{"en", "mode"}
	return cfg
}

// batchFrame is one pre-framed AppendLines batch over the record body.
type batchFrame struct {
	start, end, records, firstLine int
}

func frames(body []byte, batch int) []batchFrame {
	var fs []batchFrame
	cur := batchFrame{firstLine: 2}
	off := 0
	for off < len(body) {
		nl := bytes.IndexByte(body[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
		cur.records++
		if cur.records == batch {
			cur.end = off
			fs = append(fs, cur)
			cur = batchFrame{start: off, firstLine: 2 + len(fs)*batch}
		}
	}
	if cur.records > 0 {
		cur.end = off
		fs = append(fs, cur)
	}
	return fs
}

// balancedIDs probes candidate ids against the coordinator's ring so
// the sessions split evenly across shards: the sweep measures reducer
// scaling, not hash luck.
func balancedIDs(co *shard.Coordinator, sessions int) []string {
	perShard := make([]int, co.Shards())
	quota := (sessions + co.Shards() - 1) / co.Shards()
	ids := make([]string, 0, sessions)
	for cand := 0; len(ids) < sessions; cand++ {
		id := fmt.Sprintf("sess-%04d", cand)
		if sh := co.ShardOf(id); perShard[sh] < quota {
			perShard[sh]++
			ids = append(ids, id)
		}
	}
	return ids
}

// run streams `sessions` identical sessions through a fresh coordinator
// concurrently; returns the ingest wall clock, the final model, and
// the shed count.
func run(shards, sessions int, data []byte, batch int) (time.Duration, *psm.Model, int64) {
	sc := stream.NewScanner(bytes.NewReader(data), 0)
	h, err := sc.ScanHeader()
	check(err)
	sigs, err := h.Schema()
	check(err)
	headerEnd := bytes.IndexByte(data, '\n') + 1
	body := data[headerEnd:]
	fs := frames(body, batch)

	co := shard.New(shard.Config{Shards: shards, Stream: config()})
	defer co.Close()
	ids := balancedIDs(co, sessions)

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sess, err := co.Open(ctx, id, sigs)
			if err != nil {
				errc <- err
				return
			}
			for _, f := range fs {
				buf := make([]byte, f.end-f.start)
				copy(buf, body[f.start:f.end])
				if err := sess.AppendLines(buf, f.records, f.firstLine); err != nil {
					sess.Abort()
					errc <- err
					return
				}
			}
			if _, _, err := sess.Close(ctx); err != nil {
				errc <- err
			}
		}(ids[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		check(err)
	}
	m, err := co.Snapshot(ctx)
	check(err)
	return elapsed, m, co.Shed()
}

// reference mines the single-engine model over the same sessions
// sequentially (the canonical arm every shard count must match, and the
// speedup baseline); returns the ingest wall clock and the model.
func reference(sessions int, data []byte, batch int) (time.Duration, *psm.Model) {
	sc := stream.NewScanner(bytes.NewReader(data), 0)
	h, err := sc.ScanHeader()
	check(err)
	sigs, err := h.Schema()
	check(err)
	eng := stream.NewEngine(config())
	start := time.Now()
	for i := 0; i < sessions; i++ {
		check(ingestOne(eng, sigs, data, batch))
	}
	elapsed := time.Since(start)
	m, err := eng.Snapshot(context.Background())
	check(err)
	return elapsed, m
}

func ingestOne(eng *stream.Engine, sigs []trace.Signal, data []byte, batch int) error {
	sc := stream.NewScanner(bytes.NewReader(data), 0)
	if _, err := sc.ScanHeader(); err != nil {
		return err
	}
	sess, err := eng.Open(sigs)
	if err != nil {
		return err
	}
	var (
		arenas [2]logic.Arena
		raw    stream.RawRecord
		epoch  int
	)
	rows := make([][]logic.Vector, 0, batch)
	powers := make([]float64, 0, batch)
	rowMem := make([]logic.Vector, batch*len(sigs))
	for {
		if err := sc.ScanRecord(&raw); err == io.EOF {
			break
		} else if err != nil {
			sess.Abort()
			return err
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		if err != nil {
			sess.Abort()
			return err
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		if len(rows) == batch {
			if err := sess.AppendBatch(rows, powers); err != nil {
				sess.Abort()
				return err
			}
			rows, powers = rows[:0], powers[:0]
			epoch++
		}
	}
	if len(rows) > 0 {
		if err := sess.AppendBatch(rows, powers); err != nil {
			sess.Abort()
			return err
		}
	}
	_, err = sess.Close()
	return err
}

func main() {
	sessions := flag.Int("sessions", 8, "concurrent sessions per arm")
	records := flag.Int("records", 10000, "records per session")
	batch := flag.Int("batch", 256, "records per AppendLines batch")
	rounds := flag.Int("rounds", 3, "interleaved rounds (min wall clock wins)")
	out := flag.String("out", "BENCH_shard.json", "output path")
	flag.Parse()

	data := payload(*records, 0x9e3779b97f4a7c15)
	base, ref := reference(*sessions, data, *batch)
	total := *sessions * *records

	counts := []int{1, 2, 4, 8}
	mins := make([]time.Duration, len(counts))
	equal := make([]bool, len(counts))
	sheds := make([]int64, len(counts))
	for i := range mins {
		mins[i] = time.Duration(1 << 62)
	}
	for r := 0; r < *rounds; r++ {
		if d, _ := reference(*sessions, data, *batch); d < base {
			base = d
		}
		for i, n := range counts {
			d, m, shed := run(n, *sessions, data, *batch)
			if d < mins[i] {
				mins[i] = d
			}
			equal[i] = r == 0 && reflect.DeepEqual(ref, m) || equal[i]
			sheds[i] += shed
		}
	}

	rep := report{
		Description: "sharded ingest (shard.Coordinator, consistent-hash routing, each session parsing and reducing in its own goroutine) vs the same sessions ingested sequentially into one engine: S identical concurrent sessions of synthetic 6-signal NDJSON (widths 1..128); min aggregate ingest wall clock over interleaved rounds; speedup_x is over sequential_wall_ns; model_equal pins every arm's final model deep-equal to the single-engine reference",
		GOMAXPROCS:  runtime.GOMAXPROCS(0), Rounds: *rounds,
		Sessions: *sessions, RecordsPerSession: *records, Batch: *batch,
		GateThresholdX: 3.0,
	}
	rep.SequentialWallNs = base.Nanoseconds()
	for i, n := range counts {
		rep.Points = append(rep.Points, point{
			Shards:       n,
			WallNs:       mins[i].Nanoseconds(),
			AggRecPerSec: float64(total) / mins[i].Seconds(),
			SpeedupX:     float64(base) / float64(mins[i]),
			ModelEqual:   equal[i],
			Shed:         sheds[i],
		})
	}
	if rep.GOMAXPROCS >= 6 {
		rep.GateEnforced = true
		rep.GateNote = "TestShardScalingGate enforces >=3x aggregate throughput at 4 shards"
	} else {
		rep.GateNote = fmt.Sprintf("throughput gate needs GOMAXPROCS >= 6 for honest wall-clock scaling; this run (GOMAXPROCS=%d) records the measured ratio and pins model equality only", rep.GOMAXPROCS)
	}

	f, err := os.Create(*out)
	check(err)
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	check(enc.Encode(rep))
	check(f.Close())
	for _, p := range rep.Points {
		fmt.Printf("shards=%d wall=%s rec/s=%.0f speedup=%.2fx model_equal=%v shed=%d\n",
			p.Shards, time.Duration(p.WallNs), p.AggRecPerSec, p.SpeedupX, p.ModelEqual, p.Shed)
	}
	fmt.Printf("sequential one engine wall=%s rec/s=%.0f\n", base, float64(total)/base.Seconds())
	fmt.Printf("wrote %s (GOMAXPROCS=%d, gate_enforced=%v)\n", *out, rep.GOMAXPROCS, rep.GateEnforced)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
