// Package logic provides fixed-width bit-vector values for the RTL
// simulation kernel. A Vector models the value carried by a bus, port or
// register of an RTL design: it has an explicit bit width and wraps all
// arithmetic modulo 2^width, like Verilog's unsigned vectors.
//
// Vectors are the substrate of every trace-facing API in psmkit: functional
// traces record PI/PO valuations as Vectors, the assertion miner predicates
// over them, and the power calibration step measures Hamming distances
// between consecutive Vector values.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width unsigned bit vector. The zero value is a
// zero-width vector; use New or FromUint64 to create usable values.
//
// Vectors have value semantics through the exported API: operations return
// fresh Vectors and never alias the receiver's storage.
type Vector struct {
	width int
	words []uint64
}

// New returns a zero-valued Vector of the given width in bits.
// It panics if width is negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("logic: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, wordsFor(width))}
}

// FromUint64 returns a Vector of the given width holding v truncated to
// width bits.
func FromUint64(width int, v uint64) Vector {
	x := New(width)
	if len(x.words) > 0 {
		x.words[0] = v
	}
	x.mask()
	return x
}

// FromBytes returns a Vector of the given width from big-endian bytes
// (b[0] is the most significant byte). Bytes beyond width bits are
// truncated. Missing high bytes are treated as zero.
func FromBytes(width int, b []byte) Vector {
	x := New(width)
	for i := 0; i < len(b); i++ {
		// b[len(b)-1] is the least significant byte.
		byteIdx := len(b) - 1 - i
		x.words[i/8] |= uint64(b[byteIdx]) << (8 * (i % 8))
	}
	x.mask()
	return x
}

// MustParseHex returns a Vector of the given width parsed from a hex string
// (without 0x prefix). It panics on malformed input; it is intended for
// test vectors and constants.
func MustParseHex(width int, s string) Vector {
	x, err := ParseHex(width, s)
	if err != nil {
		panic(err)
	}
	return x
}

// ParseHex parses a hexadecimal string (most significant digit first,
// optional "0x" prefix, underscores allowed as separators) into a Vector of
// the given width. Digits beyond the width are shifted out.
func ParseHex(width int, s string) (Vector, error) {
	x := New(width)
	if err := parseHexInto(x.words, width, s); err != nil {
		return Vector{}, err
	}
	return x, nil
}

// Width returns the vector's width in bits.
func (x Vector) Width() int { return x.width }

// Clone returns an independent copy of x.
func (x Vector) Clone() Vector {
	y := Vector{width: x.width, words: make([]uint64, len(x.words))}
	copy(y.words, x.words)
	return y
}

// IsZero reports whether every bit of x is 0.
func (x Vector) IsZero() bool {
	for _, w := range x.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns bit i of x (0 = least significant). It panics if i is out of
// range.
func (x Vector) Bit(i int) uint {
	x.check(i)
	return uint(x.words[i/wordBits]>>(i%wordBits)) & 1
}

// SetBit returns a copy of x with bit i set to b (0 or 1).
func (x Vector) SetBit(i int, b uint) Vector {
	x.check(i)
	y := x.Clone()
	if b&1 == 1 {
		y.words[i/wordBits] |= 1 << (i % wordBits)
	} else {
		y.words[i/wordBits] &^= 1 << (i % wordBits)
	}
	return y
}

// Uint64 returns the low 64 bits of x.
func (x Vector) Uint64() uint64 {
	if len(x.words) == 0 {
		return 0
	}
	return x.words[0]
}

// Bytes returns the value of x as big-endian bytes, (width+7)/8 long.
func (x Vector) Bytes() []byte {
	n := (x.width + 7) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b := byte(x.words[i/8] >> (8 * (i % 8)))
		out[n-1-i] = b
	}
	return out
}

// Equal reports whether x and y have the same width and the same value.
func (x Vector) Equal(y Vector) bool {
	if x.width != y.width {
		return false
	}
	for i := range x.words {
		if x.words[i] != y.words[i] {
			return false
		}
	}
	return true
}

// Cmp compares x and y as unsigned integers, ignoring width differences.
// It returns -1, 0 or +1.
func (x Vector) Cmp(y Vector) int {
	n := len(x.words)
	if len(y.words) > n {
		n = len(y.words)
	}
	for i := n - 1; i >= 0; i-- {
		var xw, yw uint64
		if i < len(x.words) {
			xw = x.words[i]
		}
		if i < len(y.words) {
			yw = y.words[i]
		}
		switch {
		case xw < yw:
			return -1
		case xw > yw:
			return 1
		}
	}
	return 0
}

// Xor returns x ^ y. Both operands must have the same width.
func (x Vector) Xor(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	for i := range z.words {
		z.words[i] ^= y.words[i]
	}
	return z
}

// And returns x & y. Both operands must have the same width.
func (x Vector) And(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	for i := range z.words {
		z.words[i] &= y.words[i]
	}
	return z
}

// Or returns x | y. Both operands must have the same width.
func (x Vector) Or(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	for i := range z.words {
		z.words[i] |= y.words[i]
	}
	return z
}

// Not returns the bitwise complement of x within its width.
func (x Vector) Not() Vector {
	z := x.Clone()
	for i := range z.words {
		z.words[i] = ^z.words[i]
	}
	z.mask()
	return z
}

// Add returns x + y modulo 2^width. Both operands must have the same width.
func (x Vector) Add(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	var carry uint64
	for i := range z.words {
		s, c1 := bits.Add64(z.words[i], y.words[i], carry)
		z.words[i] = s
		carry = c1
	}
	z.mask()
	return z
}

// Sub returns x - y modulo 2^width. Both operands must have the same width.
func (x Vector) Sub(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	var borrow uint64
	for i := range z.words {
		d, b1 := bits.Sub64(z.words[i], y.words[i], borrow)
		z.words[i] = d
		borrow = b1
	}
	z.mask()
	return z
}

// MulUint64 returns x * k modulo 2^width.
func (x Vector) MulUint64(k uint64) Vector {
	z := New(x.width)
	var carry uint64
	for i := range x.words {
		hi, lo := bits.Mul64(x.words[i], k)
		s, c := bits.Add64(lo, carry, 0)
		z.words[i] = s
		carry = hi + c
	}
	z.mask()
	return z
}

// Shl returns x << n modulo 2^width.
func (x Vector) Shl(n int) Vector {
	if n < 0 {
		panic("logic: negative shift")
	}
	z := New(x.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := len(z.words) - 1; i >= wordShift; i-- {
		z.words[i] = x.words[i-wordShift] << bitShift
		if bitShift > 0 && i-wordShift-1 >= 0 {
			z.words[i] |= x.words[i-wordShift-1] >> (wordBits - bitShift)
		}
	}
	z.mask()
	return z
}

// Shr returns x >> n (logical shift).
func (x Vector) Shr(n int) Vector {
	if n < 0 {
		panic("logic: negative shift")
	}
	z := New(x.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := 0; i+wordShift < len(x.words); i++ {
		z.words[i] = x.words[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(x.words) {
			z.words[i] |= x.words[i+wordShift+1] << (wordBits - bitShift)
		}
	}
	return z
}

// RotL returns x rotated left by n bits within its width.
func (x Vector) RotL(n int) Vector {
	if x.width == 0 {
		return x.Clone()
	}
	n %= x.width
	if n < 0 {
		n += x.width
	}
	return x.Shl(n).Or(x.Shr(x.width - n))
}

// Slice returns bits [lo, hi] of x (inclusive, hi >= lo) as a new Vector of
// width hi-lo+1.
func (x Vector) Slice(hi, lo int) Vector {
	if lo < 0 || hi >= x.width || hi < lo {
		panic(fmt.Sprintf("logic: bad slice [%d,%d] of width %d", hi, lo, x.width))
	}
	shifted := x.Shr(lo)
	z := New(hi - lo + 1)
	copy(z.words, shifted.words)
	z.mask()
	return z
}

// Concat returns the concatenation {x, y}: x occupies the high bits and y
// the low bits of the result, whose width is x.Width()+y.Width().
func (x Vector) Concat(y Vector) Vector {
	z := New(x.width + y.width)
	copy(z.words, y.words)
	xs := Vector{width: z.width, words: make([]uint64, len(z.words))}
	copy(xs.words, x.words)
	xs = xs.Shl(y.width)
	return z.Or(xs)
}

// OnesCount returns the number of set bits in x.
func (x Vector) OnesCount() int {
	n := 0
	for _, w := range x.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// HammingDistance returns the number of differing bits between x and y.
// Both operands must have the same width; this is the switching-activity
// metric used by the power calibration step.
func (x Vector) HammingDistance(y Vector) int {
	x.sameWidth(y)
	n := 0
	for i := range x.words {
		n += bits.OnesCount64(x.words[i] ^ y.words[i])
	}
	return n
}

// String returns the value in Verilog-style sized hex, e.g. "8'h3a".
func (x Vector) String() string {
	if x.width == 0 {
		return "0'h0"
	}
	digits := (x.width + 3) / 4
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d'h", x.width)
	started := false
	for i := digits - 1; i >= 0; i-- {
		d := (x.words[(i*4)/wordBits] >> ((i * 4) % wordBits)) & 0xf
		if d != 0 || started || i == 0 {
			started = true
			fmt.Fprintf(&sb, "%x", d)
		}
	}
	return sb.String()
}

// Hex returns the zero-padded hex representation of x without any prefix.
func (x Vector) Hex() string {
	return string(x.AppendHex(make([]byte, 0, (x.width+3)/4)))
}

// AppendHex appends Hex() to dst and returns the extended slice. It is
// the allocation-free form used by the NDJSON encoder's hot path.
func (x Vector) AppendHex(dst []byte) []byte {
	digits := (x.width + 3) / 4
	if digits == 0 {
		return append(dst, '0')
	}
	const hexdigits = "0123456789abcdef"
	for i := digits - 1; i >= 0; i-- {
		d := (x.words[(i*4)/wordBits] >> ((i * 4) % wordBits)) & 0xf
		dst = append(dst, hexdigits[d])
	}
	return dst
}

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// mask clears bits above width.
func (x *Vector) mask() {
	if x.width%wordBits == 0 {
		return
	}
	if len(x.words) > 0 {
		x.words[len(x.words)-1] &= (uint64(1) << (x.width % wordBits)) - 1
	}
}

func (x Vector) check(i int) {
	if i < 0 || i >= x.width {
		panic(fmt.Sprintf("logic: bit %d out of range for width %d", i, x.width))
	}
}

func (x Vector) sameWidth(y Vector) {
	if x.width != y.width {
		panic(fmt.Sprintf("logic: width mismatch %d vs %d", x.width, y.width))
	}
}
