package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/trace"
)

func newTestBench(t *testing.T) *bench {
	t.Helper()
	return &bench{cache: t.TempDir(), dir: t.TempDir(), seed: 1, out: io.Discard,
		e2e: map[string]float64{}, layer: map[string]float64{}}
}

// smallSessions simulates short RAM traces and encodes them as upload
// sessions, the way tracegen -stream would.
func smallSessions(t *testing.T) []payload {
	t.Helper()
	c, err := experiment.CaseByName("RAM")
	if err != nil {
		t.Fatal(err)
	}
	var ps []payload
	for k := 1; k <= 2; k++ {
		ft, pw, err := simulateIP(c, 3000, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodePayload(ft, pw, trace.InputColumns(ft, c.New()))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, payload{k: k, id: fmt.Sprintf("ram-%d", k), data: data})
	}
	return ps
}

// A single corrupted byte in a served model must fail the run's
// correctness check, while the intact model passes it.
func TestCorruptedModelByteFailsCheck(t *testing.T) {
	b := newTestBench(t)
	ps := smallSessions(t)
	ref, err := b.payloadRef("test", ps, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	model := append([]byte(nil), ref...)
	if !b.checkBytes("intact", model, ref) || b.wrong {
		t.Fatal("intact model failed the check")
	}
	model[len(model)/2] ^= 0x01
	if b.checkBytes("corrupted", model, ref) {
		t.Fatal("corrupted model passed the check")
	}
	if !b.wrong || b.failed != 1 || b.attempted != 2 {
		t.Fatalf("wrong=%v failed=%d attempted=%d, want true 1 2", b.wrong, b.failed, b.attempted)
	}
	// The reference follows the fold order: another order is another model.
	other, err := b.payloadRef("test", ps, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if compareBytes(other, ref) == nil {
		t.Fatal("reference does not depend on the fold order")
	}
}

// Every non-2xx response is a failed attempt: a 429 load-shed counts
// once per try (its retry is a new attempt), a 500 ends the upload.
func TestNon2xxCountsAsFailure(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		switch {
		case strings.Contains(r.URL.RawQuery, "broken"):
			http.Error(w, "boom", http.StatusInternalServerError)
		case calls.Add(1) == 1:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
		default:
			fmt.Fprintf(w, `{"trace":0,"records":%d}`, sessionInstants)
		}
	}))
	defer srv.Close()

	b := newTestBench(t)
	a, log, err := uploadSession(newClient(), srv.URL, payload{id: "shed", data: []byte("x\n")}, nil)
	if err != nil || a.Records != sessionInstants {
		t.Fatalf("shed upload: ack %+v err %v", a, err)
	}
	_, log2, err := uploadSession(newClient(), srv.URL, payload{id: "broken", data: []byte("x\n")}, nil)
	if err == nil {
		t.Fatal("500 response was not an error")
	}
	for _, at := range append(log, log2...) {
		b.op(at.what, at.err)
	}
	if b.attempted != 3 || b.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 3 attempts with 2 failures", b.attempted, b.failed)
	}
	if _, _, err := getBody(newClient(), srv.URL+"/?broken"); err == nil {
		t.Fatal("GET with status 500 was not an error")
	}
}

func TestFoldOrderIsShardMajor(t *testing.T) {
	s0, s1 := 0, 1
	acks := []ack{{Trace: 0, Shard: &s1}, {Trace: 1, Shard: &s0}, {Trace: 0, Shard: &s0}, {Trace: 2, Shard: &s0}}
	if got := fmt.Sprint(foldOrder(acks)); got != "[2 1 3 0]" {
		t.Fatalf("fold order %s, want [2 1 3 0]", got)
	}
	one := []ack{{Trace: 2}, {Trace: 0}, {Trace: 1}}
	if got := fmt.Sprint(foldOrder(one)); got != "[1 2 0]" {
		t.Fatalf("single-engine fold order %s, want [1 2 0]", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// A gated body delivers everything but its last byte, then the rest once
// the gate opens.
func TestGatedBodyHoldsLastByte(t *testing.T) {
	gate := make(chan struct{})
	g := &gatedBody{data: []byte("abcd"), gate: gate}
	buf := make([]byte, 8)
	n, err := g.Read(buf)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("first read %q %v, want \"abc\"", buf[:n], err)
	}
	got := make(chan string, 1)
	go func() {
		n, _ := g.Read(buf)
		got <- string(buf[:n])
	}()
	select {
	case s := <-got:
		t.Fatalf("read %q before the gate opened", s)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if s := <-got; s != "d" {
		t.Fatalf("gated read %q, want \"d\"", s)
	}
	if _, err := g.Read(buf); err != io.EOF {
		t.Fatalf("after the last byte: %v, want EOF", err)
	}
}
