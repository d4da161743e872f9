package logic

import (
	"fmt"
	"strings"
	"testing"
)

// Both production parsers share parseHexInto, so they are pinned
// differentially against refParseHex, an independent implementation of
// the grammar: same value, same error text, for adversarial literals and
// for random round-trips at awkward widths.

// refParseHex is the grammar oracle: clean the literal, then shift the
// value left one nibble per digit, masking to the width each step.
func refParseHex(width int, s string) (Vector, error) {
	s = strings.TrimPrefix(strings.ReplaceAll(s, "_", ""), "0x")
	if s == "" {
		return Vector{}, fmt.Errorf("logic: empty hex literal")
	}
	x := New(width)
	for _, c := range s {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return Vector{}, fmt.Errorf("logic: invalid hex digit %q in %q", c, s)
		}
		x = x.Shl(4)
		x.words[0] |= d
	}
	x.mask()
	return x, nil
}

// hexSubjects are the production parsers under differential test.
var hexSubjects = []struct {
	name  string
	parse func(width int, s string) (Vector, error)
}{
	{"ParseHex", ParseHex},
	{"Arena.ParseHex", func(width int, s string) (Vector, error) {
		var a Arena
		return a.ParseHex(width, []byte(s))
	}},
}

var hexCases = []struct {
	width int
	s     string
}{
	{8, "ff"},
	{8, "0xff"},
	{8, "f_f"},
	{8, "_f_f_"},
	{8, "0_xff"},
	{8, "_0_x_f_f_"},
	{8, ""},
	{8, "_"},
	{8, "0x"},
	{8, "0x_"},
	{8, "00x12"},
	{8, "0x0x12"},
	{8, "x12"},
	{8, "fg"},
	{8, "FG"},
	{8, "zz"},
	{8, "é"},
	{8, "f\xfff"},
	{8, "123"}, // truncates mod 2^8
	{1, "ab"},  // truncates mod 2
	{3, "f"},   // partial top nibble
	{7, "ff"},  // partial top nibble, full digits
	{64, "0123456789abcdef"},
	{65, "1ffffffffffffffff"},
	{128, "0xdeadbeefcafebabe0123456789abcdef"},
	{130, "3_ffffffff_ffffffff_ffffffff_ffffffff"},
	{12, "ABC"},
	{12, "aBc"},
	{16, "0"},
	{16, "00000000000000000000001"},
}

func TestArenaParseHexMatchesParseHex(t *testing.T) {
	for _, sub := range hexSubjects {
		for _, c := range hexCases {
			want, wantErr := refParseHex(c.width, c.s)
			got, gotErr := sub.parse(c.width, c.s)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s(%d, %q): err %v, reference err %v", sub.name, c.width, c.s, gotErr, wantErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s(%d, %q): error text %q, reference %q", sub.name, c.width, c.s, gotErr, wantErr)
				}
				continue
			}
			if !want.Equal(got) {
				t.Fatalf("%s(%d, %q) = %v, reference %v", sub.name, c.width, c.s, got, want)
			}
		}
	}
}

func TestArenaParseHexRandomRoundTrip(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, width := range []int{1, 3, 7, 8, 17, 31, 32, 63, 64, 65, 127, 128, 129, 200} {
		for trial := 0; trial < 50; trial++ {
			v := New(width)
			for w := range v.words {
				v.words[w] = next()
			}
			v.mask()
			s := v.Hex()
			want, err := refParseHex(width, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, sub := range hexSubjects {
				got, err := sub.parse(width, s)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) || !got.Equal(v) {
					t.Fatalf("%s width %d: round trip %q: %v, reference %v (orig %v)", sub.name, width, s, got, want, v)
				}
			}
		}
	}
}

// TestArenaResetRecyclesStorage pins the lifetime contract: values parsed
// before a Reset share storage with values parsed after it, while values
// within one epoch never alias each other.
func TestArenaResetRecyclesStorage(t *testing.T) {
	var a Arena
	v1, _ := a.ParseHex(64, []byte("ffffffffffffffff"))
	v2, _ := a.ParseHex(64, []byte("1111111111111111"))
	if v1.Uint64() != 0xffffffffffffffff || v2.Uint64() != 0x1111111111111111 {
		t.Fatal("intra-epoch values corrupted")
	}
	a.Reset()
	v3, _ := a.ParseHex(64, []byte("2222222222222222"))
	if v1.Uint64() != 0x2222222222222222 {
		t.Fatalf("expected v1 to be recycled storage, got %x", v1.Uint64())
	}
	if v3.Uint64() != 0x2222222222222222 {
		t.Fatalf("v3 = %x", v3.Uint64())
	}
	// Growth inside an epoch must not disturb earlier carvings.
	a.Reset()
	var vs []Vector
	for i := 0; i < 500; i++ {
		v, err := a.ParseHex(128, []byte(fmt.Sprintf("%032x", i)))
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, v)
	}
	for i, v := range vs {
		if v.Uint64() != uint64(i) {
			t.Fatalf("carving %d corrupted after growth: %x", i, v.Uint64())
		}
	}
}

func TestAppendHexMatchesHex(t *testing.T) {
	for _, width := range []int{0, 1, 4, 7, 64, 65, 130} {
		v := New(width)
		for w := range v.words {
			v.words[w] = 0xdeadbeefcafebabe
		}
		v.mask()
		if got := string(v.AppendHex(nil)); got != v.Hex() {
			t.Fatalf("width %d: AppendHex %q vs Hex %q", width, got, v.Hex())
		}
	}
}
