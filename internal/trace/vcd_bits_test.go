package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"psmkit/internal/logic"
)

// refVCDBits is the reference decoder of a VCD binary value, a per-bit
// walk: shift left one bit per rune, set bit 0 on each '1'.
func refVCDBits(width int, bits string) logic.Vector {
	v := logic.New(width)
	for _, c := range bits {
		v = v.Shl(1)
		if c == '1' {
			v = v.SetBit(0, 1)
		}
	}
	return v
}

// randomVCDBits draws a binary value of up to maxLen digits over 0/1/x/z,
// occasionally with a stray rune (multi-byte or invalid UTF-8 included).
func randomVCDBits(rng *rand.Rand, maxLen int) string {
	digits := []string{"0", "1", "1", "0", "x", "z", "X", "Z"}
	stray := []string{"é", "\xff", "?", "2"}
	var sb strings.Builder
	n := 1 + rng.Intn(maxLen)
	for i := 0; i < n; i++ {
		if rng.Intn(50) == 0 {
			sb.WriteString(stray[rng.Intn(len(stray))])
			continue
		}
		sb.WriteString(digits[rng.Intn(len(digits))])
	}
	return sb.String()
}

func TestParseBitsMatchesShiftWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a logic.Arena
	for _, w := range []int{1, 63, 64, 65, 128} {
		for i := 0; i < 300; i++ {
			// Up to twice the width, so some values shift digits out.
			bits := randomVCDBits(rng, 2*w)
			got, want := a.ParseBits(w, []byte(bits)), refVCDBits(w, bits)
			if got.Width() != w || !got.Equal(want) {
				t.Fatalf("ParseBits(%d, %q) = %v, reference %v", w, bits, got, want)
			}
		}
	}
}

func TestReadVCDVectorChangesMatchShiftWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	widths := []int{1, 63, 64, 65, 128}
	var sb strings.Builder
	for i, w := range widths {
		fmt.Fprintf(&sb, "$var wire %d %s s%d $end\n", w, vcdID(i), i)
	}
	sb.WriteString("$enddefinitions $end\n")
	const steps = 40
	want := make([][]logic.Vector, steps)
	cur := make([]logic.Vector, len(widths))
	for i, w := range widths {
		cur[i] = logic.New(w)
	}
	for ts := 0; ts < steps; ts++ {
		fmt.Fprintf(&sb, "#%d\n", ts)
		for i, w := range widths {
			if rng.Intn(3) == 0 {
				continue // unchanged: forward fill
			}
			var bits string
			if rng.Intn(4) == 0 {
				// Scalar form: one digit glued to the id.
				bits = string("01xzXZ"[rng.Intn(6)])
				fmt.Fprintf(&sb, "%s%s\n", bits, vcdID(i))
			} else {
				bits = randomVCDBits(rng, w+3)
				fmt.Fprintf(&sb, "b%s %s\n", bits, vcdID(i))
			}
			cur[i] = refVCDBits(w, bits)
		}
		want[ts] = append([]logic.Vector(nil), cur...)
	}
	ft, err := ReadVCD(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != steps {
		t.Fatalf("got %d rows, want %d", ft.Len(), steps)
	}
	for ts := range want {
		for c := range widths {
			if got := ft.Value(ts, c); !got.Equal(want[ts][c]) {
				t.Fatalf("t=%d col %d (width %d) = %v, reference %v", ts, c, widths[c], got, want[ts][c])
			}
		}
	}
}
