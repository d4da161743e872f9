package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"psmkit/internal/logic"
)

// The slab-backed CSV reader is tested differentially against
// refReadFunctionalCSV: same rows, same error text, same limit errors.

// refReadFunctionalCSV is the reference reader: strings.Split per line,
// one logic.ParseHex vector per value, one row copy per Append.
func refReadFunctionalCSV(r io.Reader, lim Limits) (*Functional, error) {
	sc := bufio.NewScanner(r)
	buf := lim.lineBytes()
	sc.Buffer(make([]byte, min(buf, 1<<20)), buf)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	var sigs []Signal
	widthBits := 0
	for _, field := range strings.Split(sc.Text(), ",") {
		name, widthStr, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("trace: bad header field %q", field)
		}
		w, err := strconv.Atoi(widthStr)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("trace: bad width in header field %q", field)
		}
		sigs = append(sigs, Signal{Name: name, Width: w})
		widthBits += w
	}
	if err := lim.checkSignals(len(sigs), widthBits); err != nil {
		return nil, err
	}
	f := NewFunctional(sigs)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if err := lim.checkInstants(f.Len() + 1); err != nil {
			return nil, err
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(sigs) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(fields), len(sigs))
		}
		row := make([]logic.Vector, len(fields))
		for i, field := range fields {
			v, err := logic.ParseHex(sigs[i].Width, field)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %v", line, i, err)
			}
			row[i] = v
		}
		f.Append(row)
	}
	return f, sc.Err()
}

// sameCSVResult fails t unless the production reader and the reference
// agree on in: both errors with identical text, or identical traces.
func sameCSVResult(t *testing.T, in string, lim Limits) {
	t.Helper()
	want, wantErr := refReadFunctionalCSV(strings.NewReader(in), lim)
	got, gotErr := ReadFunctionalCSVBounded(strings.NewReader(in), lim)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("input %q: err %v, reference err %v", in, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("input %q: err %q, reference %q", in, gotErr, wantErr)
		}
		if _, ok := wantErr.(*LimitError); ok {
			if _, ok := gotErr.(*LimitError); !ok {
				t.Fatalf("input %q: err %T, reference *LimitError", in, gotErr)
			}
		}
		return
	}
	if !got.SameSchema(want) || got.Len() != want.Len() {
		t.Fatalf("input %q: %d rows over %v, reference %d rows over %v",
			in, got.Len(), got.Signals, want.Len(), want.Signals)
	}
	for ti := 0; ti < want.Len(); ti++ {
		for c := range want.Signals {
			g, w := got.Value(ti, c), want.Value(ti, c)
			if g.Width() != w.Width() || !g.Equal(w) {
				t.Fatalf("input %q: value (%d,%d) = %v, reference %v", in, ti, c, g, w)
			}
		}
	}
}

func TestReadFunctionalCSVMatchesReference(t *testing.T) {
	long := "a:8\n" + strings.Repeat("f", 200) + "\n"
	cases := []struct {
		name string
		in   string
		lim  Limits
	}{
		{"ok", "a:8,b:16\n01,0203\nff,ffff\n", Limits{}},
		{"field count on a later line", "a:8,b:16\n01,0203\n02,0304\n03\n", Limits{}},
		{"too many fields", "a:8,b:16\n01,0203\n02,0304,05\n", Limits{}},
		{"bad hex in field 1 of line 3", "a:8,b:16\n01,0203\n02,03g4\n", Limits{}},
		{"bad hex in field 0 of line 2", "a:8,b:16\nz1,0203\n", Limits{}},
		{"empty field", "a:8,b:16\n01,\n", Limits{}},
		{"blank and whitespace-only lines", "a:8,b:16\n\n01,0203\n   \n\t\n02,0304\n\n", Limits{}},
		{"CRLF", "a:8,b:16\r\n01,0203\r\nff,ffff\r\n", Limits{}},
		{"trailing comma", "a:8,b:16\n01,0203,\n", Limits{}},
		{"trailing comma, one signal", "a:8\n01,\n", Limits{}},
		{"inner spaces", "a:8,b:16\n01, 0203\n", Limits{}},
		{"surrounding spaces", "a:8,b:16\n  01,0203 \n", Limits{}},
		{"underscores and prefix", "a:8,b:16\n0x_1,_f_f_\n", Limits{}},
		{"digits beyond width", "a:3,b:65\nff,1ffffffffffffffff1\n", Limits{}},
		{"wide values", "a:128,b:1\n0123456789abcdefFEDCBA9876543210,1\n", Limits{}},
		{"MaxInstants", "a:1,b:4\n1,a\n\n0,3\n1,f\n", Limits{MaxInstants: 2}},
		{"MaxInstants exact", "a:1,b:4\n1,a\n0,3\n", Limits{MaxInstants: 2}},
		{"MaxSignals", "a:1,b:4\n1,a\n", Limits{MaxSignals: 1}},
		{"MaxWidthBits", "a:1,b:4\n1,a\n", Limits{MaxWidthBits: 4}},
		{"over-long line", long, Limits{MaxLineBytes: 64}},
		{"over-long header", "a:8," + strings.Repeat("b", 100) + ":8\n", Limits{MaxLineBytes: 64}},
		{"empty", "", Limits{}},
		{"header only", "a:8\n", Limits{}},
		{"bad header", "a:8,b\n00,0000", Limits{}},
		{"zero width", "a:0\n0", Limits{}},
		{"no trailing newline", "a:4\n1\n2", Limits{}},
		{"non-ASCII digit", "a:8\n1é\n", Limits{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { sameCSVResult(t, c.in, c.lim) })
	}
}

// FuzzCSVParse feeds arbitrary bytes to the bounded CSV reader and
// requires the reference reader's exact outcome: the same rows, or the
// same error text.
func FuzzCSVParse(f *testing.F) {
	f.Add([]byte("a:8,b:16\n01,0203\nff,ffff\n"))
	f.Add([]byte("a:1,b:128\r\n1,0x_dead_beef\r\n\r\n0,\n"))
	f.Add([]byte("a:8\n  \n1,\n"))
	f.Add([]byte("a:65\n" + strings.Repeat("f", 40) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		sameCSVResult(t, string(data), Limits{
			MaxInstants:  1 << 12,
			MaxSignals:   32,
			MaxWidthBits: 1 << 11,
			MaxLineBytes: 1 << 12,
		})
	})
}

// randomCSV renders rows random rows over a fixed mixed-width schema.
func randomCSV(rows int, rng *rand.Rand) string {
	widths := []int{1, 128, 1, 128, 1, 1, 1, 128}
	var sb strings.Builder
	for i, w := range widths {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "s%d:%d", i, w)
	}
	sb.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for i, w := range widths {
			if i > 0 {
				sb.WriteByte(',')
			}
			v := logic.New(w)
			for b := 0; b < w; b++ {
				if rng.Intn(2) == 1 {
					v = v.SetBit(b, 1)
				}
			}
			sb.WriteString(v.Hex())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestReadFunctionalCSVRandomMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rows := range []int{1, 3, 100, 5000} {
		sameCSVResult(t, randomCSV(rows, rng), Limits{})
	}
}

// The readers allocate per slab, not per row: under 1 allocation per
// 100 rows on a 20k-row trace.
func TestCSVReadersAllocations(t *testing.T) {
	const rows = 20000
	funcCSV := []byte(randomCSV(rows, rand.New(rand.NewSource(1))))
	var pw bytes.Buffer
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&pw, "%.9e\n", float64(i)*1.5e-6)
	}
	powerCSV := pw.Bytes()

	allocs := testing.AllocsPerRun(5, func() {
		ft, err := ReadFunctionalCSV(bytes.NewReader(funcCSV))
		if err != nil || ft.Len() != rows {
			t.Fatalf("functional read: %d rows, %v", ft.Len(), err)
		}
	})
	t.Logf("ReadFunctionalCSV: %.0f allocations for %d rows", allocs, rows)
	if allocs >= rows/100 {
		t.Errorf("ReadFunctionalCSV: %.0f allocations for %d rows, want < %d", allocs, rows, rows/100)
	}
	allocs = testing.AllocsPerRun(5, func() {
		p, err := ReadPowerCSV(bytes.NewReader(powerCSV))
		if err != nil || p.Len() != rows {
			t.Fatalf("power read: %d rows, %v", p.Len(), err)
		}
	})
	t.Logf("ReadPowerCSV: %.0f allocations for %d rows", allocs, rows)
	if allocs >= rows/100 {
		t.Errorf("ReadPowerCSV: %.0f allocations for %d rows, want < %d", allocs, rows, rows/100)
	}
}
