package pipeline_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/stats"
)

// obsCtx returns a context with every observability sink attached: span
// events stream to io.Discard, a live registry and a live provenance
// log — the heaviest instrumented configuration.
func obsCtx() (context.Context, *obs.ProvenanceLog) {
	log := obs.NewProvenanceLog()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(io.Discard))
	ctx = obs.WithRegistry(ctx, obs.NewRegistry())
	ctx = obs.WithProvenance(ctx, log)
	return ctx, log
}

// TestPropertyObservedBuildIdentical pins the instrumentation-neutrality
// invariant: BuildModel with the full observability stack attached must
// emit byte-identical DOT and JSON exports to the plain run, for every
// seed of the randomized suite.
func TestPropertyObservedBuildIdentical(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	pol := experiment.DefaultPolicies()
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)
		cfg := pipeline.Config{Workers: 4, Mining: pol.Mining, Merge: pol.Merge, Calibration: pol.Calibration}

		plain, plainErr := pipeline.BuildModel(context.Background(), c.fts, c.pws, c.cols, cfg)
		ctx, _ := obsCtx()
		observed, obsErr := pipeline.BuildModel(ctx, c.fts, c.pws, c.cols, cfg)

		switch {
		case plainErr != nil && obsErr != nil:
			continue
		case plainErr != nil || obsErr != nil:
			t.Fatalf("seed %d: plain err=%v, observed err=%v — instrumentation changed the outcome", seed, plainErr, obsErr)
		}

		var pDOT, oDOT, pJSON, oJSON bytes.Buffer
		if err := plain.WriteDOT(&pDOT, "m"); err != nil {
			t.Fatal(err)
		}
		if err := observed.WriteDOT(&oDOT, "m"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pDOT.Bytes(), oDOT.Bytes()) {
			t.Fatalf("seed %d: DOT differs under instrumentation (%s)", seed, c)
		}
		if err := plain.WriteJSON(&pJSON); err != nil {
			t.Fatal(err)
		}
		if err := observed.WriteJSON(&oJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pJSON.Bytes(), oJSON.Bytes()) {
			t.Fatalf("seed %d: JSON differs under instrumentation (%s)", seed, c)
		}
	}
}

// buildWithProvenance runs the chain+join flow with a provenance log
// attached and returns the canonical decision list, the pooled state
// count (the simplified chains' total) and the served model's state
// count.
func buildWithProvenance(t *testing.T, c propCase, workers int) (ds []obs.MergeDecision, pooled, served int) {
	t.Helper()
	pol := experiment.DefaultPolicies()
	cfg := pipeline.Config{Workers: workers, Mining: pol.Mining, Merge: pol.Merge}
	log := obs.NewProvenanceLog()
	ctx := obs.WithProvenance(context.Background(), log)
	chains, err := pipeline.BuildChains(ctx, c.fts, c.pws, cfg)
	if err != nil {
		t.Skipf("trace set unbuildable: %v", err)
	}
	model, err := pipeline.TreeJoin(ctx, chains, pol.Merge, workers)
	if err != nil {
		t.Skipf("join failed: %v", err)
	}
	for _, ch := range chains {
		pooled += len(ch.States)
	}
	return log.Decisions(), pooled, len(model.States)
}

// TestProvenanceDeterministicAcrossWorkers: the canonical decision log
// must not depend on the worker count, only on the inputs.
func TestProvenanceDeterministicAcrossWorkers(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)
		seq, _, _ := buildWithProvenance(t, c, 1)
		if len(seq) == 0 {
			t.Fatalf("seed %d: no merge decisions recorded (%s)", seed, c)
		}
		for _, workers := range []int{2, 4} {
			par, _, _ := buildWithProvenance(t, c, workers)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("seed %d: provenance log differs between 1 and %d workers", seed, workers)
			}
		}
	}
}

// TestProvenanceReplay: every logged decision carries the exact
// accumulator ⟨N, Σx, Σx²⟩ of both states, so re-running the merge
// policy on the logged moments must reproduce the logged test, case,
// statistic and verdict — the audit log is self-verifying. And every
// logged join accept is a collapse, so the accepted join decisions
// number exactly the pooled states minus the served ones.
func TestProvenanceReplay(t *testing.T) {
	pol := experiment.DefaultPolicies()
	total := 0
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)
		ds, pooled, served := buildWithProvenance(t, c, 4)
		joinAccepts := 0
		for _, d := range ds {
			if d.Phase == "join" && d.Accept {
				joinAccepts++
			}
			a := stats.Moments{N: d.A.N, Sum: d.A.Sum, SumSq: d.A.SumSq}
			b := stats.Moments{N: d.B.N, Sum: d.B.Sum, SumSq: d.B.SumSq}
			out := pol.Merge.Evaluate(a, b)
			if out.Accept != d.Accept || out.Test != d.Test || out.Case != d.Case {
				t.Fatalf("seed %d decision %d: replay gives case=%d test=%s accept=%v, log says case=%d test=%s accept=%v",
					seed, d.Seq, out.Case, out.Test, out.Accept, d.Case, d.Test, d.Accept)
			}
			if out.Stat != d.Stat || out.Threshold != d.Threshold || out.T != d.T {
				t.Fatalf("seed %d decision %d: replay statistic (%v vs %v, t %v) differs from log (%v vs %v, t %v)",
					seed, d.Seq, out.Stat, out.Threshold, out.T, d.Stat, d.Threshold, d.T)
			}
			total++
		}
		if joinAccepts != pooled-served {
			t.Fatalf("seed %d: %d accepted join decisions, but the join collapsed %d pooled states into %d (%d collapses)",
				seed, joinAccepts, pooled, served, pooled-served)
		}
	}
	if total == 0 {
		t.Fatal("replay exercised no decisions")
	}
}
