package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// genRows draws one synthetic trace as raw rows + powers, so the same
// data can feed both an NDJSON upload and the batch trace types.
func genRows(seed int64, n int) ([][]logic.Vector, []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]logic.Vector, 0, n)
	pows := make([]float64, 0, n)
	en, op := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			en = uint64(rng.Intn(2))
		}
		if rng.Float64() < 0.3 {
			op = uint64(rng.Intn(4))
		}
		rows = append(rows, []logic.Vector{logic.FromUint64(1, en), logic.FromUint64(2, op)})
		pows = append(pows, 1.0+2.5*float64(en)+0.01*rng.NormFloat64())
	}
	return rows, pows
}

func uploadBody(t *testing.T, rows [][]logic.Vector, pows []float64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(HeaderForTest()); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if err := enc.WriteRow(row, pows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func batchTraces(rows [][][]logic.Vector, pows [][]float64) ([]*trace.Functional, []*trace.Power) {
	var fts []*trace.Functional
	var pws []*trace.Power
	for i := range rows {
		ft := trace.NewFunctional(testSigs)
		for _, row := range rows[i] {
			ft.Append(row)
		}
		fts = append(fts, ft)
		pws = append(pws, &trace.Power{Values: pows[i]})
	}
	return fts, pws
}

// TestProvenanceParityWithBatch pins the acceptance invariant: over the
// same completed traces, GET /v1/provenance returns exactly the decision
// log the batch flow (psmreport provenance) produces — same decisions,
// same canonical order, same statistics.
func TestProvenanceParityWithBatch(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var allRows [][][]logic.Vector
	var allPows [][]float64
	for i := 0; i < 3; i++ {
		rows, pows := genRows(int64(100+i), 400)
		allRows, allPows = append(allRows, rows), append(allPows, pows)
		// Sequential uploads: trace indices assign in order, like the
		// batch flow's file order.
		resp := mustPost(t, ts.URL+"/v1/traces", uploadBody(t, rows, pows))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, readAll(t, resp))
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/provenance")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/provenance: %s", readAll(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	served, err := obs.ReadDecisions(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(served) == 0 {
		t.Fatal("served provenance is empty")
	}

	// The batch flow over the same traces, same policies.
	scfg := srv.cfg.Stream
	fts, pws := batchTraces(allRows, allPows)
	log := obs.NewProvenanceLog()
	ctx := obs.WithProvenance(context.Background(), log)
	cfg := pipeline.Config{Workers: 4, Mining: scfg.Mining, Merge: scfg.Merge}
	chains, err := pipeline.BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.TreeJoin(ctx, chains, scfg.Merge, 4); err != nil {
		t.Fatal(err)
	}
	batch := log.Decisions()

	if !reflect.DeepEqual(served, batch) {
		t.Fatalf("provenance diverges: served %d decisions, batch %d", len(served), len(batch))
	}

	// The export is idempotent and does not disturb the model cache.
	resp2, err := http.Get(ts.URL + "/v1/provenance")
	if err != nil {
		t.Fatal(err)
	}
	again, err := obs.ReadDecisions(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, again) {
		t.Fatal("provenance not idempotent")
	}
}

func TestProvenanceEmptyAndMethod(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/provenance")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty engine: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = mustPost(t, ts.URL+"/v1/provenance", strings.NewReader(""))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestMetricsDuringUploads hammers GET /metrics (both formats) while
// uploads run, at one and two shards, pinning the epoch-consistency
// fix: under -race this is the regression test for the engine counters
// being read under the same lock as the model cache. Once the uploads
// settle, the fleet registry — the Prometheus exposition and the
// psmd_registry JSON section — must carry the ingest totals equal to
// Metrics at every shard count.
func TestMetricsDuringUploads(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { metricsDuringUploads(t, shards) })
	}
}

func metricsDuringUploads(t *testing.T, shards int) {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Shards = shards
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const uploaders, readers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body := genNDJSON(t, int64(1000+u*rounds+r), 200, true)
				resp, err := http.Post(ts.URL+"/v1/traces", "application/x-ndjson", body)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(u)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				url := ts.URL + "/metrics"
				if g%2 == 1 {
					url += "?format=prometheus"
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
					return
				}
				if g%2 == 0 {
					var doc map[string]json.RawMessage
					if err := json.Unmarshal([]byte(body), &doc); err != nil {
						t.Errorf("metrics JSON invalid: %v", err)
						return
					}
					for _, key := range []string{"psmd", "psmd_registry", "memstats"} {
						if _, ok := doc[key]; !ok {
							t.Errorf("metrics JSON missing %q", key)
							return
						}
					}
				} else if !strings.Contains(body, "psmd_records_ingested_total") {
					t.Error("prometheus exposition missing psmd_records_ingested_total")
					return
				}
				// Interleave a model read so snapshots race the uploads too.
				if mresp, err := http.Get(ts.URL + "/v1/model"); err == nil {
					mresp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	var doc struct {
		PSMD struct {
			RecordsIngested int64 `json:"records_ingested"`
			TracesCompleted int   `json:"traces_completed"`
		} `json:"psmd"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	wantRecords := int64(uploaders * rounds * 200)
	if doc.PSMD.RecordsIngested != wantRecords || doc.PSMD.TracesCompleted != uploaders*rounds {
		t.Fatalf("final counters: %d records / %d traces, want %d / %d\n%s",
			doc.PSMD.RecordsIngested, doc.PSMD.TracesCompleted, wantRecords, uploaders*rounds, body)
	}

	var reg struct {
		Registry obs.Snapshot `json:"psmd_registry"`
	}
	if err := json.Unmarshal([]byte(body), &reg); err != nil {
		t.Fatal(err)
	}
	prom := readAll(t, mustGet(t, ts.URL+"/metrics?format=prometheus"))
	m := srv.Metrics()
	for _, want := range []struct {
		name  string
		gauge bool
		v     int64
	}{
		{"psmd_records_ingested_total", false, m.RecordsIngested},
		{"psmd_traces_completed_total", false, int64(m.TracesCompleted)},
		{"psmd_sessions_open", true, int64(m.OpenSessions)},
	} {
		got, ok := reg.Registry.Counters[want.name]
		if want.gauge {
			var g float64
			g, ok = reg.Registry.Gauges[want.name]
			got = int64(g)
		}
		if !ok || got != want.v {
			t.Errorf("psmd_registry %s = %d (present %v), want %d", want.name, got, ok, want.v)
		}
		if line := fmt.Sprintf("\n%s %d\n", want.name, want.v); !strings.Contains(prom, line) {
			t.Errorf("prometheus exposition lacks %q", strings.TrimSpace(line))
		}
	}
}
