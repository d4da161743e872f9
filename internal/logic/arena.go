package logic

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Arena carves Vector word storage out of reusable slabs so a hot ingest
// loop can parse millions of rows without a per-value allocation. Vectors
// issued by an arena are ordinary Vectors in every respect except
// lifetime: Reset recycles the slab, so an issued Vector (and anything
// aliasing its words) is valid only until the owning arena's next Reset.
//
// Callers that must keep a value across a Reset copy it out with Clone.
// The streaming ingest paths (serve.handleTraces, shard.Session.
// AppendLines) double-buffer two arenas because the engine retains each
// batch's last row for one extra batch (input-HD history). The trace
// readers (trace.ReadFunctionalCSV, trace.ReadVCD) never reset theirs:
// every value they decode lives as long as the trace.
//
// An Arena is not safe for concurrent use; sessions and readers own one
// (or two) each.
type Arena struct {
	slab []uint64
	off  int
}

// Reset recycles the arena: every Vector issued since the previous Reset
// becomes invalid and its storage is reused by subsequent parses.
func (a *Arena) Reset() { a.off = 0 }

// grab carves n zeroed words out of the slab, growing it when exhausted.
// Grown slabs abandon the old one — Vectors already issued keep it alive
// through their own word slices, so growth never corrupts them.
func (a *Arena) grab(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if a.off+n > len(a.slab) {
		sz := 2 * len(a.slab)
		if sz < 1024 {
			sz = 1024
		}
		if sz < n {
			sz = n
		}
		a.slab = make([]uint64, sz)
		a.off = 0
	}
	w := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range w {
		w[i] = 0
	}
	return w
}

// ParseHex parses a hexadecimal byte slice into an arena-backed Vector
// of the given width (which must be positive). Grammar, truncation
// semantics and error text are exactly ParseHex's — both run
// parseHexInto: underscores allowed anywhere, one optional "0x" prefix
// after underscore removal, digits beyond the width shifted out. The
// input is not retained.
func (a *Arena) ParseHex(width int, s []byte) (Vector, error) {
	words := a.grab(wordsFor(width))
	if err := parseHexInto(words, width, s); err != nil {
		return Vector{}, err
	}
	return Vector{width: width, words: words}, nil
}

// parseHexInto is the allocation-free hex decoder behind ParseHex and
// Arena.ParseHex: it ORs the digits of s into the zeroed words of a
// width-bit vector. Digits are placed directly at their nibble position
// from the least significant end — equivalent, modulo 2^width, to
// shifting the value left one nibble per digit, which the differential
// tests pin against such a walk (refParseHex).
func parseHexInto[S string | []byte](words []uint64, width int, s S) error {
	// Locate the end of the optional "0x" prefix: the first two
	// effective (non-underscore) bytes being exactly '0','x' — the
	// prefix that remains once underscores are removed.
	start := 0
	i := 0
	for i < len(s) && s[i] == '_' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		j := i + 1
		for j < len(s) && s[j] == '_' {
			j++
		}
		if j < len(s) && s[j] == 'x' {
			start = j + 1
		}
	}

	digitsCap := (width + 3) / 4
	k := 0 // nibble index from the least significant end
	for i := len(s) - 1; i >= start; i-- {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		case c == '_':
			continue
		default:
			// The scan runs backwards; report the forward-order error
			// (first offending rune, cleaned string) off the hot path.
			return hexDigitError(string(s))
		}
		if k < digitsCap {
			words[k/16] |= d << uint((k%16)*4)
		}
		k++
	}
	if k == 0 {
		return fmt.Errorf("logic: empty hex literal")
	}
	if width%wordBits != 0 {
		words[len(words)-1] &= (uint64(1) << uint(width%wordBits)) - 1
	}
	return nil
}

// hexDigitError is the diagnostic for an invalid digit: underscores
// removed, one "0x" prefix trimmed, first bad rune in forward order.
func hexDigitError(s string) error {
	clean := strings.TrimPrefix(strings.ReplaceAll(s, "_", ""), "0x")
	for _, c := range clean {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'f':
		case c >= 'A' && c <= 'F':
		default:
			return fmt.Errorf("logic: invalid hex digit %q in %q", c, clean)
		}
	}
	return fmt.Errorf("logic: invalid hex literal %q", clean)
}

// ParseBits decodes a VCD binary value — binary digits, most significant
// first — into an arena-backed Vector of the given width (which must be
// positive). Every rune other than '1' contributes a 0 bit, so x and z
// digits read as 0; digits beyond the width are shifted out. The result
// equals shifting the value left one bit per rune and setting bit 0 on
// each '1', which the differential tests pin against such a walk. The
// input is not retained.
func (a *Arena) ParseBits(width int, s []byte) Vector {
	words := a.grab(wordsFor(width))
	// Position of each digit from the least significant end, counted in
	// runes: a multi-byte rune is one digit, as in a range loop.
	pos := utf8.RuneCount(s)
	for len(s) > 0 {
		_, n := utf8.DecodeRune(s)
		pos--
		if s[0] == '1' && pos < width {
			words[pos/wordBits] |= 1 << uint(pos%wordBits)
		}
		s = s[n:]
	}
	return Vector{width: width, words: words}
}
