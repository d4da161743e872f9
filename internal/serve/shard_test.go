package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

func newShardedTestServer(shards int) *Server {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Shards = shards
	return New(cfg)
}

// shardedIngestResult mirrors ingestResult for response decoding.
type shardedIngestResult struct {
	Trace   int  `json:"trace"`
	Records int  `json:"records"`
	Shard   *int `json:"shard"`
}

// TestAdmission429RetryAfter pins the admission contract at one and
// two shards: when a shard's open-session cap rejects an upload, the
// 429 carries the configured Retry-After hint so a well-behaved client
// backs off instead of hammering the cap, and the refusal is counted as
// a shed in that shard's metrics row.
func TestAdmission429RetryAfter(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Stream.Inputs = []string{"op"}
		cfg.Stream.MaxOpenSessions = 1
		cfg.Shards = shards
		cfg.RetryAfter = 3 * time.Second
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())

		// Two session ids on the same shard, so the second meets the
		// first's cap.
		var ids []string
		for k := 0; len(ids) < 2; k++ {
			if id := fmt.Sprintf("cap-%d", k); srv.co.ShardOf(id) == shards-1 {
				ids = append(ids, id)
			}
		}

		// Hold one session open: stream the header and wait for the
		// server to register it.
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Post(ts.URL+"/v1/traces?session="+ids[0], "application/x-ndjson", pr)
			if err == nil {
				readAll(t, resp)
			}
		}()
		full := genNDJSON(t, 11, 50, true).Bytes()
		if _, err := pw.Write(full); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Metrics().OpenSessions == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shards %d: server never opened the held session", shards)
			}
			time.Sleep(5 * time.Millisecond)
		}

		// A second upload must be shed with 429 + Retry-After.
		resp := mustPost(t, ts.URL+"/v1/traces?session="+ids[1], genNDJSON(t, 12, 10, true))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shards %d: over-cap upload: status %d, want 429 (%s)", shards, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Fatalf("shards %d: Retry-After = %q, want \"3\"", shards, got)
		}
		if !strings.Contains(body, "sessions already open") {
			t.Fatalf("shards %d: unexpected rejection body: %s", shards, body)
		}
		rows := srv.co.ShardMetrics()
		if srv.co.Shed() != 1 || rows[shards-1].Shed != 1 {
			t.Fatalf("shards %d: refusal counted %d fleet-wide, %d on shard %d; want 1 and 1",
				shards, srv.co.Shed(), rows[shards-1].Shed, shards-1)
		}

		pw.Close()
		<-done
		ts.Close()
	}
}

// TestIngestErrorMapping pins the error→status mapping of the ingest
// path: an open-session-cap refusal maps to 429 with the configured
// Retry-After (rounded up to whole seconds), everything else to 400.
func TestIngestErrorMapping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RetryAfter = 1500 * time.Millisecond
	srv := New(cfg)

	rec := httptest.NewRecorder()
	srv.ingestError(rec, fmt.Errorf("stream: 1 %w (limit 1)", stream.ErrSessionLimit))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("session cap: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("session cap Retry-After = %q, want \"2\" (1.5s rounds up)", got)
	}

	rec = httptest.NewRecorder()
	srv.ingestError(rec, io.ErrUnexpectedEOF)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("plain error: status %d, want 400", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("plain error carries Retry-After %q", got)
	}
}

// TestShardedServeParity drives the sharded server over HTTP and pins
// the tentpole guarantee end to end: the model a 4-shard daemon serves
// is byte-identical (JSON and DOT) to one stream.Engine fed the same
// rows in the canonical shard-major order, and the metrics and status
// surfaces carry consistent per-shard rows.
func TestShardedServeParity(t *testing.T) {
	const nShards, nTraces = 4, 8
	lens := []int{60, 90, 40, 120, 75, 55, 100, 80}

	sharded := newShardedTestServer(nShards)
	ts := httptest.NewServer(sharded.Handler())
	defer ts.Close()

	// Sequential uploads with explicit session ids; the response's shard
	// and local trace index define the canonical cross-shard order.
	type upload struct {
		seed         int64
		n            int
		shard, local int
	}
	var ups []upload
	records := 0
	for i := 0; i < nTraces; i++ {
		resp := mustPost(t, ts.URL+"/v1/traces?session=trace-"+string(rune('0'+i)), genNDJSON(t, int64(i), lens[i], true))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, resp.StatusCode, body)
		}
		var res shardedIngestResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if res.Shard == nil || *res.Shard < 0 || *res.Shard >= nShards {
			t.Fatalf("upload %d: missing or out-of-range shard in %s", i, body)
		}
		if res.Records != lens[i] {
			t.Fatalf("upload %d: %d records acknowledged, want %d", i, res.Records, lens[i])
		}
		ups = append(ups, upload{seed: int64(i), n: lens[i], shard: *res.Shard, local: res.Trace})
		records += lens[i]
	}

	shardedModel := readAll(t, mustGet(t, ts.URL+"/v1/model"))
	shardedDOT := readAll(t, mustGet(t, ts.URL+"/v1/model?format=dot"))

	// Reference: one stream.Engine, outside the coordinator, fed the same
	// rows directly in canonical order — shards in index order, each
	// shard's sessions in completion (here: upload) order.
	sort.SliceStable(ups, func(i, j int) bool {
		if ups[i].shard != ups[j].shard {
			return ups[i].shard < ups[j].shard
		}
		return ups[i].local < ups[j].local
	})
	ecfg := DefaultConfig().Stream
	ecfg.Inputs = []string{"op"}
	eng := stream.NewEngine(ecfg)
	for _, u := range ups {
		rows, pows := genRows(u.seed, u.n)
		sess, err := eng.Open(testSigs)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.AppendBatch(rows, pows); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := eng.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var singleModel, singleDOT bytes.Buffer
	if err := ref.WriteJSON(&singleModel); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteDOT(&singleDOT, "psm"); err != nil {
		t.Fatal(err)
	}
	if shardedModel != singleModel.String() {
		t.Fatal("sharded JSON model differs from the canonical single-engine model")
	}
	if shardedDOT != singleDOT.String() {
		t.Fatal("sharded DOT model differs from the canonical single-engine model")
	}

	// /metrics: fleet sums plus one row per shard, consistent with them.
	var mdoc struct {
		PSMD struct {
			RecordsIngested int64               `json:"records_ingested"`
			TracesCompleted int                 `json:"traces_completed"`
			Shards          []shard.ShardMetric `json:"shards"`
		} `json:"psmd"`
	}
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/metrics"))), &mdoc); err != nil {
		t.Fatal(err)
	}
	if mdoc.PSMD.RecordsIngested != int64(records) || mdoc.PSMD.TracesCompleted != nTraces {
		t.Fatalf("fleet sums: %d records / %d traces, want %d / %d",
			mdoc.PSMD.RecordsIngested, mdoc.PSMD.TracesCompleted, records, nTraces)
	}
	if len(mdoc.PSMD.Shards) != nShards {
		t.Fatalf("metrics carry %d shard rows, want %d", len(mdoc.PSMD.Shards), nShards)
	}
	var sumRec int64
	var sumTraces int
	for i, row := range mdoc.PSMD.Shards {
		if row.Shard != i {
			t.Fatalf("shard row %d labeled %d", i, row.Shard)
		}
		sumRec += row.RecordsIngested
		sumTraces += row.TracesCompleted
	}
	if sumRec != int64(records) || sumTraces != nTraces {
		t.Fatalf("shard rows sum to %d records / %d traces, want %d / %d",
			sumRec, sumTraces, records, nTraces)
	}

	// Prometheus exposition carries the per-shard shed counters.
	prom := readAll(t, mustGet(t, ts.URL+"/metrics?format=prometheus"))
	if !strings.Contains(prom, "psmd_shard0_shed_total") {
		t.Fatal("prometheus exposition lacks per-shard shed counters")
	}

	// /v1/status carries the same per-shard rows.
	var sdoc struct {
		Ready  bool                `json:"ready"`
		Shards []shard.ShardMetric `json:"shards"`
		Engine struct {
			TracesCompleted int `json:"traces_completed"`
		} `json:"engine"`
	}
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/v1/status"))), &sdoc); err != nil {
		t.Fatal(err)
	}
	if !sdoc.Ready || sdoc.Engine.TracesCompleted != nTraces {
		t.Fatalf("status: ready=%v traces=%d, want true/%d", sdoc.Ready, sdoc.Engine.TracesCompleted, nTraces)
	}
	if len(sdoc.Shards) != nShards {
		t.Fatalf("status carries %d shard rows, want %d", len(sdoc.Shards), nShards)
	}
}

// TestShardedIngestErrors replays the one-shard failure cases against a
// two-shard server: each must come back with the same status and the
// same body text, record and line numbers included — there is one
// ingest loop, whatever the shard count — and nothing may leak.
func TestShardedIngestErrors(t *testing.T) {
	one := postIngestErrors(t, 1)
	two := postIngestErrors(t, 2)
	for i, tc := range ingestErrorCases {
		if one[i] != two[i] {
			t.Errorf("%s: body differs between shard counts:\n1: %q\n2: %q", tc.name, one[i], two[i])
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return resp
}

// TestShardSkewSurfaces routes three of four equal sessions to shard 0
// of 2 and reads the record skew — max/mean records per shard, 300/200
// = 1.5 — from /v1/status and the psmd_shard_skew gauge; before any
// ingest both read 1.
func TestShardSkewSurfaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Shards = 2
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	skew := func() (status, gauge float64) {
		t.Helper()
		var doc statusDoc
		if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/v1/status"))), &doc); err != nil {
			t.Fatal(err)
		}
		prom := readAll(t, mustGet(t, ts.URL+"/metrics?format=prometheus"))
		for _, line := range strings.Split(prom, "\n") {
			if v, ok := strings.CutPrefix(line, "psmd_shard_skew "); ok {
				g, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatalf("psmd_shard_skew sample %q: %v", line, err)
				}
				return doc.ShardSkew, g
			}
		}
		t.Fatalf("prometheus exposition lacks psmd_shard_skew:\n%s", prom)
		return 0, 0
	}
	if st, g := skew(); st != 1 || g != 1 {
		t.Fatalf("skew before ingest: status %v, gauge %v; want 1", st, g)
	}

	var ids []string
	onShard := [2]int{}
	for k := 0; len(ids) < 4; k++ {
		id := fmt.Sprintf("skew-%d", k)
		sh := srv.co.ShardOf(id)
		if want := []int{3, 1}[sh]; onShard[sh] < want {
			onShard[sh]++
			ids = append(ids, id)
		}
	}
	for i, id := range ids {
		resp := mustPost(t, ts.URL+"/v1/traces?session="+id, genNDJSON(t, int64(40+i), 100, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %s: %s", id, readAll(t, resp))
		}
		resp.Body.Close()
	}
	if st, g := skew(); st != 1.5 || g != 1.5 {
		t.Fatalf("skew after 3+1 sessions: status %v, gauge %v; want 1.5", st, g)
	}
}
