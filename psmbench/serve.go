package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/logic"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

const (
	sessionCount    = 4     // AES upload sessions
	sessionInstants = 25000 // records per session
	uploadRetries   = 3     // attempts per session when psmd sheds with 429
)

// payload is one upload session: its natural id and NDJSON bytes.
type payload struct {
	k    int // 1-based capture number
	id   string
	path string
	data []byte
}

// completion is the order, as payload indices, in which a round's
// sessions complete: the first session of each connection, then the
// second ones (aes-1, aes-3, aes-2, aes-4). Both connections stream
// concurrently, but a session's last byte waits for its predecessor's
// ack, so the fold order — which the join's cost depends on — is the
// same in every round. The traced pass ingests in the same order.
var completion = []int{0, 2, 1, 3}

// sessions names round r's four AES upload sessions. Session ids are
// the capture numbers (aes-1 … aes-4), so their shard placement is the
// same in every round and run; the tracegen seeds follow the workload
// seed and the round.
func (b *bench) sessions(r int) []payload {
	ps := make([]payload, sessionCount)
	for i := range ps {
		id := fmt.Sprintf("aes-%d", i+1)
		ps[i] = payload{k: i + 1, id: id, path: filepath.Join(b.dir, fmt.Sprintf("r%d-%s.ndjson", r, id))}
	}
	return ps
}

// writeSessions runs tracegen -stream for round r's sessions, at most
// nproc at a time.
func (b *bench) writeSessions(r int, ps []payload) error {
	aes, err := experiment.CaseByName("AES")
	if err != nil {
		return err
	}
	var jobs []func() error
	for _, p := range ps {
		seed := serveSeed(aes, b.seed, r, p.k)
		jobs = append(jobs, func() error {
			return b.runProcTo(p.path, "tracegen", "-ip", "AES", "-n", strconv.Itoa(sessionInstants),
				"-seed", strconv.FormatInt(seed, 10), "-stream")
		})
	}
	for _, err := range parallel(runtime.NumCPU(), jobs) {
		if !b.op("tracegen -stream", err) {
			return err
		}
	}
	return nil
}

// load reads the sessions' bytes.
func load(ps []payload) error {
	for i := range ps {
		data, err := os.ReadFile(ps[i].path)
		if err != nil {
			return err
		}
		ps[i].data = data
	}
	return nil
}

// serveSeed is the tracegen seed of session k in round r.
func serveSeed(aes experiment.IPCase, seed int64, r, k int) int64 {
	return aes.Seed + 424243 + seed*seedStride + int64(r*sessionCount+k)*7919
}

// roundSet names round r's sessions in the reference cache.
func roundSet(r int) string {
	return fmt.Sprintf("aes%dx%d-r%d", sessionCount, sessionInstants, r)
}

// headerInputs returns the primary-input names a payload's header
// declares (psmd -inputs).
func headerInputs(data []byte) ([]string, error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	var h stream.Header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("payload header: %w", err)
	}
	return h.Inputs, nil
}

// ack is psmd's response to a completed upload.
type ack struct {
	Trace   int  `json:"trace"`
	Records int  `json:"records"`
	Shard   *int `json:"shard"`
}

// foldKey is an acknowledged session's place in the served fold order:
// shard-major, then the shard-local trace index (one engine = shard 0).
func (a ack) foldKey() (int, int) {
	if a.Shard == nil {
		return 0, a.Trace
	}
	return *a.Shard, a.Trace
}

// serve is the psmd workload at -shards=2, in rounds. Each round writes
// four fresh AES sessions, starts a daemon, uploads them over two
// keep-alive connections as a closed loop, reads the model once and then
// once more with no new data, and stops the daemon. Every served model
// must equal the batch flow over the fold order its round's acks report.
func (b *bench) serve() error {
	var setups []float64
	var rounds []round
	var inputs []string
	var timed time.Duration
	for len(rounds) < b.minRounds() || timed < b.seconds {
		ps := b.sessions(len(rounds))
		if err := b.writeSessions(len(rounds), ps); err != nil {
			return err
		}
		if err := load(ps); !b.op("read sessions", err) {
			return err
		}
		if len(rounds) == 0 {
			var err error
			if inputs, err = headerInputs(ps[0].data); !b.op("session header", err) {
				return err
			}
			for i := 0; i < extraStarts; i++ {
				d, err := b.startDaemon(inputs)
				if !b.op("start psmd", err) {
					return err
				}
				setups = append(setups, seconds(d.ready))
				b.op("stop psmd", d.stop())
			}
		}
		start := time.Now()
		r, err := b.serveRound(inputs, ps)
		if err != nil {
			return err
		}
		timed += time.Since(start)
		rounds = append(rounds, r)
	}

	var ingest, first, gen, repeats, rss []float64
	for _, r := range rounds {
		setups = append(setups, r.ready)
		ingest = append(ingest, r.ingest)
		first = append(first, r.first)
		gen = append(gen, r.toModel)
		repeats = append(repeats, r.repeats...)
		rss = append(rss, r.rss)
	}
	b.e2e["setup_s"] = median(setups)
	b.e2e["ingest_rec_per_s"] = float64(sessionCount*sessionInstants) / median(ingest)
	b.e2e["first_model_s"] = median(first)
	b.e2e["gen_s"] = median(gen)
	b.e2e["repeat_model_s"] = median(repeats)
	b.e2e["peak_rss_mb"] = median(rss)
	fmt.Fprintf(b.out, "medians over %d rounds (%d repeated reads); setup over %d psmd starts\n",
		len(rounds), len(repeats), len(setups))

	// References after the timed rounds, two at a time; each job loads
	// its round's sessions again.
	refs := make([][]byte, len(rounds))
	var jobs []func() error
	for i := range rounds {
		jobs = append(jobs, func() error {
			ps := b.sessions(i)
			if err := load(ps); err != nil {
				return err
			}
			var err error
			refs[i], err = b.payloadRef(roundSet(i), ps, rounds[i].order)
			return err
		})
	}
	for i, err := range parallel(2, jobs) {
		if b.op("reference", err) {
			b.checkBytes(fmt.Sprintf("round %d served model", i+1), rounds[i].model, refs[i])
		}
	}
	if b.trace {
		ps := b.sessions(0)
		if err := load(ps); !b.op("read sessions", err) {
			return err
		}
		return b.tracedServe(ps, inputs, b.e2e["gen_s"])
	}
	return nil
}

const (
	serveShards = 2 // psmd -shards
	extraStarts = 4 // psmd start/stop cycles before the first round, for setup_s
	repeatReads = 3 // repeated GET /v1/model per round
)

// minRounds is the least number of rounds a serve run makes (a traced
// run makes one). A sharded model read's cost depends on the sessions
// (on a 2-core machine the first read of twenty rounds of one seed took
// 0.42–0.64 s, inter-quartile range 14% of the median) and on the
// machine's momentary speed, so the medians average over many rounds of
// fresh sessions. The join's cost grows faster than the session length
// (a first read took about 0.5 s at 4×25k instants, 1.3 s at 4×50k and
// 3.5 s at 4×100k), so short sessions buy the most rounds per second.
func (b *bench) minRounds() int {
	if b.trace {
		return 1
	}
	return 20
}

// round is one daemon lifetime of a serve run.
type round struct {
	ready, ingest, first, toModel float64   // s
	repeats                       []float64 // s, repeated model reads
	rss                           float64   // VmHWM, MiB
	model                         []byte    // first served model
	order                         []int     // fold order from the acks
}

func (b *bench) serveRound(inputs []string, ps []payload) (round, error) {
	var r round
	d, err := b.startDaemon(inputs)
	if !b.op("start psmd", err) {
		return r, err
	}
	defer func() {
		if d != nil {
			_ = d.stop()
		}
	}()
	r.ready = seconds(d.ready)

	// Two keep-alive connections (nproc on the reference box), each
	// uploading two sessions back to back; finished[i] closes when
	// session i's upload ends either way, releasing its successor in
	// the completion order.
	conns := [2]*http.Client{newClient(), newClient()}
	base := "http://" + d.addr
	acks := make([]ack, len(ps))
	done := make([]time.Time, len(ps))
	finished := make([]chan struct{}, len(ps))
	gates := make([]<-chan struct{}, len(ps))
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	for j := 1; j < len(completion); j++ {
		gates[completion[j]] = finished[completion[j-1]]
	}
	logs := make([][]attempt, len(conns))
	errc := make(chan error, len(conns))
	t0 := time.Now()
	for c := range conns {
		go func(c int) {
			var err error
			for i := c * len(ps) / len(conns); i < (c+1)*len(ps)/len(conns); i++ {
				if err == nil {
					var log []attempt
					acks[i], log, err = uploadSession(conns[c], base, ps[i], gates[i])
					logs[c] = append(logs[c], log...)
					done[i] = time.Now()
				}
				close(finished[i])
			}
			errc <- err
		}(c)
	}
	var upErr error
	for range conns {
		if err := <-errc; err != nil && upErr == nil {
			upErr = err
		}
	}
	for _, log := range logs {
		for _, at := range log {
			b.op(at.what, at.err)
		}
	}
	if upErr != nil {
		return r, upErr
	}
	last := t0
	for i, a := range acks {
		if done[i].After(last) {
			last = done[i]
		}
		if !b.op("ack records "+ps[i].id, wantRecords(a.Records)) {
			b.wrong = true
		}
	}
	r.ingest = seconds(last.Sub(t0))

	body, lat, err := getBody(conns[0], base+"/v1/model")
	if !b.op("GET /v1/model", err) {
		return r, err
	}
	r.model, r.first, r.toModel = body, seconds(lat), seconds(time.Since(t0))
	for i := 0; i < repeatReads; i++ {
		body, lat, err = getBody(conns[0], base+"/v1/model")
		if !b.op("GET /v1/model (repeat)", err) {
			return r, err
		}
		r.repeats = append(r.repeats, seconds(lat))
		b.checkBytes("repeat read equals first read", body, r.model)
	}
	r.order = foldOrder(acks)
	fmt.Fprintf(b.out, "round: ingest %.3f s, first model %.3f s, repeat median %.3f s, fold order %s\n",
		r.ingest, r.first, median(r.repeats), orderString(ps, r.order))
	b.scrapeMetrics(conns[0], base)
	r.rss, err = d.peakRSS()
	b.op("read psmd VmHWM", err)
	err = d.stop()
	d = nil
	b.op("stop psmd", err)
	return r, nil
}

func wantRecords(n int) error {
	if n != sessionInstants {
		return fmt.Errorf("acked %d records, uploaded %d", n, sessionInstants)
	}
	return nil
}

// newClient returns a client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// attempt is one upload request's outcome, replayed into the run's
// failure accounting by the driving goroutine.
type attempt struct {
	what string
	err  error
}

// uploadSession POSTs one session, retrying a 429 load-shed after its
// Retry-After hint; every request counts as an attempt. The body's last
// byte waits until gate closes (nil = no gate).
func uploadSession(c *http.Client, base string, p payload, gate <-chan struct{}) (ack, []attempt, error) {
	url := base + "/v1/traces?session=" + p.id
	var log []attempt
	for try := 1; ; try++ {
		req, err := http.NewRequest(http.MethodPost, url, &gatedBody{data: p.data, gate: gate})
		if err != nil {
			return ack{}, log, err
		}
		req.ContentLength = int64(len(p.data))
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.Do(req)
		if err != nil {
			log = append(log, attempt{"POST " + p.id, err})
			return ack{}, log, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, tail(string(body), 200))
		}
		log = append(log, attempt{"POST " + p.id, err})
		if err == nil {
			var a ack
			err = json.Unmarshal(body, &a)
			return a, log, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || try == uploadRetries {
			return ack{}, log, err
		}
		wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		time.Sleep(time.Duration(max(wait, 1)) * time.Second)
	}
}

// gatedBody streams data but holds its last byte back until gate closes,
// so the server cannot complete the session before then.
type gatedBody struct {
	data []byte
	off  int
	gate <-chan struct{}
}

func (g *gatedBody) Read(p []byte) (int, error) {
	if g.off == len(g.data) {
		return 0, io.EOF
	}
	end := len(g.data)
	if g.gate != nil {
		if g.off == end-1 {
			<-g.gate
		} else {
			end--
		}
	}
	n := copy(p, g.data[g.off:end])
	g.off += n
	return n, nil
}

// getBody fetches url and returns its body and the latency to the last
// body byte. A non-2xx status is an error.
func getBody(c *http.Client, url string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, lat, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, tail(string(body), 200))
	}
	return body, lat, nil
}

// scrapeMetrics prints psmd's own counters after the run: snapshot kinds,
// load-shed and per-shard records.
func (b *bench) scrapeMetrics(c *http.Client, base string) {
	body, _, err := getBody(c, base+"/metrics")
	if !b.op("GET /metrics", err) {
		return
	}
	var doc struct {
		Psmd struct {
			Rebuilds       int `json:"rebuilds"`
			DeltaSnapshots int `json:"delta_snapshots"`
			Shards         []struct {
				Records int64 `json:"records_ingested"`
				Shed    int64 `json:"shed_total"`
			} `json:"shards"`
		} `json:"psmd"`
	}
	if !b.op("parse /metrics", json.Unmarshal(body, &doc)) {
		return
	}
	var shed int64
	var recs []string
	for _, s := range doc.Psmd.Shards {
		shed += s.Shed
		recs = append(recs, strconv.FormatInt(s.Records, 10))
	}
	fmt.Fprintf(b.out, "psmd.snapshots_delta %d  psmd.rebuilds %d  psmd.shed %d  psmd.shard_records %s\n",
		doc.Psmd.DeltaSnapshots, doc.Psmd.Rebuilds, shed, strings.Join(recs, ","))
}

// foldOrder returns payload indices in the order the served model folds
// them, from the acks.
func foldOrder(acks []ack) []int {
	order := make([]int, len(acks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		sx, tx := acks[order[x]].foldKey()
		sy, ty := acks[order[y]].foldKey()
		if sx != sy {
			return sx < sy
		}
		return tx < ty
	})
	return order
}

func orderString(ps []payload, order []int) string {
	var ids []string
	for _, i := range order {
		ids = append(ids, ps[i].id)
	}
	return strings.Join(ids, ",")
}

// payloadRef is the reference model JSON for a set of sessions in fold
// order: the sequential experiment.BuildModel over the decoded sessions,
// cached per session set, seed and order.
func (b *bench) payloadRef(set string, ps []payload, order []int) ([]byte, error) {
	key := strings.ReplaceAll(orderString(ps, order), ",", "_")
	path := filepath.Join(b.cache, fmt.Sprintf("%s-%s-s%d-%s.json", set, cacheTag(), b.seed, key))
	if data, err := os.ReadFile(path); err == nil {
		return data, nil
	}
	ts := &experiment.TraceSet{}
	for _, i := range order {
		ft, pw, err := decodePayload(ps[i].data)
		if err != nil {
			return nil, err
		}
		ts.FTs = append(ts.FTs, ft)
		ts.PWs = append(ts.PWs, pw)
	}
	inputs, err := headerInputs(ps[0].data)
	if err != nil {
		return nil, err
	}
	for _, name := range inputs {
		ts.InputCols = append(ts.InputCols, ts.FTs[0].Column(name))
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := flow.Model.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), writeFileAtomic(path, buf.Bytes())
}

// decodePayload parses an NDJSON session back into its traces.
func decodePayload(data []byte) (*trace.Functional, *trace.Power, error) {
	sc := stream.NewScanner(bytes.NewReader(data), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		return nil, nil, err
	}
	sigs, err := h.Schema()
	if err != nil {
		return nil, nil, err
	}
	ft := trace.NewFunctional(sigs)
	pw := &trace.Power{}
	var a logic.Arena // never reset: the rows outlive the decode
	var raw stream.RawRecord
	for {
		err := sc.ScanRecord(&raw)
		if errors.Is(err, io.EOF) {
			return ft, pw, nil
		}
		if err != nil {
			return nil, nil, err
		}
		row, err := stream.DecodeRowArena(sigs, &raw, &a, nil)
		if err != nil {
			return nil, nil, err
		}
		if raw.P == nil {
			return nil, nil, fmt.Errorf("record %d has no power", ft.Len()+1)
		}
		ft.Append(row)
		pw.Values = append(pw.Values, *raw.P)
	}
}

// daemon is one running psmd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	ready  time.Duration // exec to first 200 from /v1/status
	exited chan struct{} // closed when psmd's stderr reaches EOF
}

// startDaemon execs psmd on an ephemeral loopback port, learns the port
// from its "serving" log event and polls /v1/status until it answers 200.
func (b *bench) startDaemon(inputs []string) (*daemon, error) {
	cmd := b.command("psmd", "-addr", "127.0.0.1:0",
		"-inputs", strings.Join(inputs, ","), "-shards", strconv.Itoa(serveShards))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			var ev struct {
				Msg   string `json:"msg"`
				Attrs struct {
					Addr string `json:"addr"`
				} `json:"attrs"`
			}
			if !sent && json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Msg == "serving" {
				addrc <- ev.Attrs.Addr
				sent = true
			}
		}
		// Drain whatever is left so psmd never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	deadline := time.Now().Add(30 * time.Second)
	select {
	case d.addr = <-addrc:
	case <-d.exited:
		d.stop()
		return nil, errors.New("psmd exited before serving")
	case <-time.After(time.Until(deadline)):
		d.stop()
		return nil, errors.New("psmd did not report its address")
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get("http://" + d.addr + "/v1/status")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("psmd /v1/status not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSS reads psmd's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts psmd down gracefully (SIGTERM drains in-flight work), kills
// it if it does not exit in time, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return d.cmd.Wait()
}
