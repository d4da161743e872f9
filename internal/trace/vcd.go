package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"psmkit/internal/logic"
)

// ReadVCD parses a Value Change Dump into a functional trace with one row
// per timestamp unit in [0, lastTimestamp]. Values persist between change
// records (forward fill); signals with no value before their first change
// start at zero; `x` and `z` bits read as 0, matching the common
// convention when importing simulator dumps for power analysis.
//
// The reader accepts the subset of VCD that simulators commonly emit (and
// WriteVCD produces): $var declarations of type wire/reg, scalar changes
// `0id`/`1id`, vector changes `b... id`, and `#time` records. $dumpvars /
// $end markers are tolerated.
//
// ReadVCD is unbounded; parsers facing untrusted input should use
// ReadVCDBounded.
func ReadVCD(r io.Reader) (*Functional, error) {
	return ReadVCDBounded(r, Limits{})
}

// ReadVCDBounded is ReadVCD under resource limits: the parse fails with a
// *LimitError — before committing the memory — when the dump declares
// more signals or total width than allowed, or when a timestamp would
// forward-fill more rows than MaxInstants. The fuzz harness and the psmd
// ingest path share these limits.
func ReadVCDBounded(r io.Reader, lim Limits) (*Functional, error) {
	sc := bufio.NewScanner(r)
	buf := lim.lineBytes()
	sc.Buffer(make([]byte, min(buf, 1<<20)), buf)

	type sig struct {
		name  string
		width int
		col   int
	}
	byID := map[string]*sig{}
	var order []*sig

	// --- header -----------------------------------------------------------
	inDefs := true
	for inDefs && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "$var"):
			// $var wire <width> <id> <name> [indices] $end
			f := strings.Fields(line)
			if len(f) < 5 {
				return nil, fmt.Errorf("trace: malformed $var: %q", line)
			}
			w, err := strconv.Atoi(f[2])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("trace: bad width in $var: %q", line)
			}
			s := &sig{name: f[4], width: w, col: len(order)}
			byID[f[3]] = s
			order = append(order, s)
		case strings.HasPrefix(line, "$enddefinitions"):
			inDefs = false
		default:
			// $timescale, $scope, $upscope, comments… skipped.
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("trace: VCD declares no signals")
	}
	widthBits := 0
	for _, s := range order {
		widthBits += s.width
	}
	if err := lim.checkSignals(len(order), widthBits); err != nil {
		return nil, err
	}

	sigs := make([]Signal, len(order))
	cur := make([]logic.Vector, len(order))
	for i, s := range order {
		sigs[i] = Signal{Name: s.name, Width: s.width}
		cur[i] = logic.New(s.width)
	}
	out := NewFunctional(sigs)
	// Changed values are decoded into an arena the trace keeps (never
	// reset); forward-filled rows share the current values and are
	// carved from the same chunked row slab as the CSV reader's.
	var (
		arena logic.Arena
		slab  rowSlab
	)

	apply := func(line []byte) error {
		switch line[0] {
		case '0', '1', 'x', 'z', 'X', 'Z':
			s, ok := byID[string(line[1:])]
			if !ok {
				return fmt.Errorf("trace: change for unknown VCD id %q", line[1:])
			}
			// A scalar change is a one-digit binary value: 0 or 1, with
			// x and z reading as 0.
			cur[s.col] = arena.ParseBits(s.width, line[:1])
		case 'b', 'B':
			bits, id, ok := bytes.Cut(line[1:], []byte(" "))
			if !ok {
				return fmt.Errorf("trace: malformed vector change %q", line)
			}
			s, found := byID[string(bytes.TrimSpace(id))]
			if !found {
				return fmt.Errorf("trace: change for unknown VCD id %q", id)
			}
			cur[s.col] = arena.ParseBits(s.width, bits)
		default:
			return fmt.Errorf("trace: unsupported VCD change %q", line)
		}
		return nil
	}

	emitTo := func(t int) {
		for out.Len() < t {
			row := slab.next(len(cur))
			copy(row, cur)
			out.rows = append(out.rows, row)
		}
	}

	// --- value changes ------------------------------------------------------
	started := false
	lastT := 0
	handle := func(line []byte) error {
		if len(line) == 0 || line[0] == '$' {
			return nil // $dumpvars / $end markers
		}
		if line[0] == '#' {
			t, err := strconv.Atoi(string(line[1:]))
			if err != nil || t < 0 {
				return fmt.Errorf("trace: bad timestamp %q", line)
			}
			// The final emitTo materializes row lastT as well, so the
			// commitment of accepting this timestamp is t+1 rows.
			if err := lim.checkInstants(t + 1); err != nil {
				return err
			}
			if started {
				// rows for [lastT, t) carry the previous values
				emitTo(t)
			}
			started = true
			lastT = t
			return nil
		}
		// Changes before the first timestamp set initial values.
		return apply(line)
	}

	for sc.Scan() {
		if err := handle(bytes.TrimSpace(sc.Bytes())); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !started {
		return nil, fmt.Errorf("trace: VCD has no timestamps")
	}
	// final row for the last timestamp
	emitTo(lastT + 1)
	return out, nil
}
