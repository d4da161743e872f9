package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

// TestCoordinatorHammer races concurrent sessions (with mid-session
// aborts) against continuous snapshots on a 4-shard coordinator. The
// coordinator must come out clean: no open sessions, aborted sessions
// invisible, and the final model byte-identical to the batch flow over
// the completed sessions in canonical shard-major order. Under
// `make race` this is the data-race hammer for the close/cut-lock/
// snapshot interleaving.
func TestCoordinatorHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := genParityCase(rng)
	co := newCoordinator(c, 4, 2)
	defer co.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// "no completed traces" is expected early in the hammer;
			// consistency is asserted by the final snapshot.
			//psmlint:ignore err-drop chaos arm; the final snapshot asserts consistency
			_, _ = co.Snapshot(ctx)
			time.Sleep(300 * time.Microsecond)
		}
	}()

	type done struct{ shardIdx, local, traceIdx int }
	var (
		mu     sync.Mutex
		closed []done
	)
	const workers, perWorker = 6, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < perWorker; it++ {
				i := rng.Intn(len(c.fts))
				id := fmt.Sprintf("hammer-%d-%d", seed, it)
				s, err := co.Open(ctx, id, c.fts[i].Signals)
				if err != nil {
					t.Error(err)
					return
				}
				n := c.fts[i].Len()
				abortAt := -1
				if rng.Float64() < 0.35 {
					abortAt = 1 + rng.Intn(n-1)
				}
				aborted := false
				for r := 0; r < n; r++ {
					if r == abortAt {
						s.Abort()
						aborted = true
						break
					}
					if err := s.AppendRows([][]logic.Vector{c.fts[i].Row(r)}, []float64{c.pws[i].Values[r]}); err != nil {
						t.Error(err)
						s.Abort()
						aborted = true
						break
					}
				}
				if aborted {
					continue
				}
				local, rows, err := s.Close(ctx)
				if err != nil {
					t.Error(err)
					continue
				}
				if rows != n {
					t.Errorf("session %s: %d rows landed, want %d", id, rows, n)
				}
				mu.Lock()
				closed = append(closed, done{s.Shard(), local, i})
				mu.Unlock()
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(stop)
	bgWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(closed) == 0 {
		t.Fatal("hammer completed no sessions")
	}

	sortDone := func(a, b done) bool {
		if a.shardIdx != b.shardIdx {
			return a.shardIdx < b.shardIdx
		}
		return a.local < b.local
	}
	for i := range closed {
		for j := i + 1; j < len(closed); j++ {
			if sortDone(closed[j], closed[i]) {
				closed[i], closed[j] = closed[j], closed[i]
			}
		}
	}
	order := make([]int, len(closed))
	for i, d := range closed {
		order[i] = d.traceIdx
	}

	live, err := co.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchModel(c, order)
	if err != nil {
		t.Fatal(err)
	}
	ld, lj := exports(t, live)
	bd, bj := exports(t, batch)
	if ld != bd || lj != bj {
		t.Fatal("post-hammer model differs from batch over canonical shard-major order")
	}
	// The delta path must serve identical bytes.
	again, err := co.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ad, aj := exports(t, again)
	if ad != ld || aj != lj {
		t.Fatal("repeat snapshot differs: the cross-shard pool was mutated")
	}
	m := co.Metrics()
	if m.OpenSessions != 0 {
		t.Fatalf("%d sessions still open after the hammer", m.OpenSessions)
	}
	if m.TracesCompleted != len(closed) {
		t.Fatalf("coordinator counts %d completed traces, hammer closed %d", m.TracesCompleted, len(closed))
	}
}

// TestSessionCapRefusalIsShed pins the load-shed contract of the
// router: the only refusal left is a shard's open-session cap, and each
// one must surface as stream.ErrSessionLimit and be counted both in the
// fleet Shed counter and in the refusing shard's metrics row — never in
// another shard's. The refused sessions must leave no state behind.
func TestSessionCapRefusalIsShed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := genParityCase(rng)
	mcfg, merge, cal := flowPolicies()
	co := shard.New(shard.Config{
		Shards: 2,
		Stream: stream.Config{
			Workers:         1,
			Mining:          mcfg,
			Merge:           merge,
			Calibration:     cal,
			Inputs:          c.inputs,
			MaxOpenSessions: 1,
		},
	})
	defer co.Close()
	ctx := context.Background()

	// Two ids on the same shard: the second one hits that shard's cap.
	var ids []string
	for k := 0; len(ids) < 2; k++ {
		if id := fmt.Sprintf("cap-%d", k); co.ShardOf(id) == 1 {
			ids = append(ids, id)
		}
	}
	held, err := co.Open(ctx, ids[0], c.fts[0].Signals)
	if err != nil {
		t.Fatal(err)
	}
	const refusals = 3
	for k := 0; k < refusals; k++ {
		if _, err := co.Open(ctx, ids[1], c.fts[0].Signals); !errors.Is(err, stream.ErrSessionLimit) {
			t.Fatalf("open %d over the cap: err = %v, want ErrSessionLimit", k, err)
		}
	}
	if got := co.Shed(); got != refusals {
		t.Fatalf("fleet shed counter %d, want %d", got, refusals)
	}
	rows := co.ShardMetrics()
	if len(rows) != 2 {
		t.Fatalf("%d shard metric rows, want 2", len(rows))
	}
	if rows[0].Shed != 0 || rows[1].Shed != refusals {
		t.Fatalf("shard rows shed %d/%d, want 0/%d", rows[0].Shed, rows[1].Shed, refusals)
	}
	if got := co.Registry().Snapshot().Counters["psmd_shard1_shed_total"]; got != refusals {
		t.Fatalf("psmd_shard1_shed_total = %d, want %d", got, refusals)
	}
	// Freeing the slot admits the next session.
	held.Abort()
	s, err := co.Open(ctx, ids[1], c.fts[0].Signals)
	if err != nil {
		t.Fatalf("open after the slot freed: %v", err)
	}
	s.Abort()
	if m := co.Metrics(); m.OpenSessions != 0 || m.TracesCompleted != 0 || m.RecordsIngested != 0 {
		t.Fatalf("refused/aborted sessions leaked state: %+v", m)
	}
}
