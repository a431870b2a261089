// Package gf2 implements the randomness substrate of the paper's
// derandomization (Section 2.2):
//
//   - arithmetic in the binary fields GF(2^m), m ≤ 63;
//   - the k-wise independent hash families of Theorem 2.4 [Vad12],
//     h_S(x) = Σ_{j<k} A_j ⊗ x^j over GF(2^m), with a seed of k·m bits;
//   - the biased coins of Lemma 2.5, C_v = 1 ⇔ h_S(ψ(v)) mod 2^b < T_v;
//   - an exact conditional-probability engine: every output bit of h_S(x)
//     is an affine form over the seed bits, so marginal and joint coin
//     probabilities under a partially fixed seed reduce to counting points
//     of affine subspaces of GF(2)^d — computed with echelon bases in
//     O(b²) word operations instead of 2^d enumeration.
//
// The engine is what lets the CONGEST/clique/MPC algorithms evaluate the
// conditional expectations of Lemma 2.6 exactly (probabilities are dyadic
// rationals, exactly representable in float64 for every seed length used
// in this repository).
package gf2

import (
	"fmt"
	"math/bits"
	"sync"
)

// Field is the binary field GF(2^m) with a fixed irreducible reduction
// polynomial x^m + g(x). Elements are the integers 0..2^m−1 interpreted as
// polynomials over GF(2).
type Field struct {
	m   int
	g   uint64 // low-order bits of the reduction polynomial (without x^m)
	max uint64 // 2^m − 1

	// fold is the precomputed byte-wise reduction table: fold[i][b] is
	// the fully reduced polynomial b·x^(m+8i) mod (x^m+g). A product of
	// two reduced operands has degree ≤ 2m−2, so its excess part H
	// (bits ≥ m) spans at most m−1 ≤ 63 bits; XOR-ing one table entry
	// per byte of H reduces the product with no data-dependent branches,
	// replacing the 128-step scan of reduceScan in the Mul hot path.
	fold [8][256]uint64
}

// fieldCache holds one lazily built field per degree. The Once makes
// first use safe under concurrency — concurrent callers of a new degree
// wait for a single irreducible search instead of racing on it.
var fieldCache [64]fieldEntry

type fieldEntry struct {
	once sync.Once
	f    *Field
	err  error
}

// NewField returns GF(2^m) for 1 ≤ m ≤ 63. The reduction polynomial is
// found by deterministic search (Rabin irreducibility test), so no
// hard-coded table needs to be trusted; fields are cached per m, and
// the search runs once per m even when goroutines first use the same
// degree concurrently.
func NewField(m int) (*Field, error) {
	if m < 1 || m > 63 {
		return nil, fmt.Errorf("gf2: field degree %d out of range [1,63]", m)
	}
	c := &fieldCache[m]
	c.once.Do(func() {
		g, err := findIrreducible(m)
		if err != nil {
			c.err = err
			return
		}
		f := &Field{m: m, g: g, max: (uint64(1) << m) - 1}
		f.buildFoldTables()
		c.f = f
	})
	return c.f, c.err
}

// buildFoldTables fills the byte-wise reduction tables: fold[i][b] =
// b·x^(m+8i) mod (x^m+g). Entries are fully reduced (< 2^m), so folding
// the excess bits of a product never creates new excess bits.
func (f *Field) buildFoldTables() {
	// pow = x^(m+t) mod g for t = 0, 1, 2, ...: a MulByX chain seeded
	// with x^m mod g = g.
	pow := f.g
	for t := 0; t < 8*len(f.fold); t++ {
		tab := &f.fold[t/8]
		bit := uint64(1) << (t % 8)
		for b := bit; b < 256; b = (b + 1) | bit {
			tab[b] ^= pow
		}
		pow = f.MulByX(pow)
	}
}

// MustField is NewField but panics on error (for in-range constant m).
func MustField(m int) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// M returns the field degree m.
func (f *Field) M() int { return f.m }

// Order returns 2^m, the number of field elements.
func (f *Field) Order() uint64 { return f.max + 1 }

// ReductionPoly returns the low-order bits of the reduction polynomial
// (the full polynomial is x^m + ReductionPoly()).
func (f *Field) ReductionPoly() uint64 { return f.g }

// Add returns a + b = a XOR b.
func (f *Field) Add(a, b uint64) uint64 { return a ^ b }

// clmul returns the 128-bit carry-less product of a and b as (hi, lo),
// using a 4-bit window on b: a per-call table of the 16 carry-less
// multiples a·{0..15} turns the data-dependent popcount(b)-step loop of
// the bit-serial method into 16 branch-free window folds. clmulBitSerial
// is kept as the independent differential reference.
func clmul(a, b uint64) (hi, lo uint64) {
	if a == 0 || b == 0 {
		return 0, 0
	}
	// tab·[i] = carry-less a·i; entries reach degree 63+3, so each keeps
	// a 3-bit high word.
	var tabLo, tabHi [16]uint64
	tabLo[1] = a
	for i := 2; i < 16; i += 2 {
		tabLo[i] = tabLo[i/2] << 1
		tabHi[i] = tabHi[i/2]<<1 | tabLo[i/2]>>63
		tabLo[i+1] = tabLo[i] ^ a
		tabHi[i+1] = tabHi[i]
	}
	lo = tabLo[b&0xf]
	hi = tabHi[b&0xf]
	for s := 4; s < 64; s += 4 {
		nib := (b >> s) & 0xf
		lo ^= tabLo[nib] << s
		hi ^= tabHi[nib]<<s | tabLo[nib]>>(64-s)
	}
	return hi, lo
}

// clmulBitSerial is the bit-serial carry-less multiply, kept as the
// independent reference for the windowed clmul and for polyMulMod (so
// the pre-Field code path shares nothing with the fast path it checks).
func clmulBitSerial(a, b uint64) (hi, lo uint64) {
	for b != 0 {
		shift := bits.TrailingZeros64(b)
		b &= b - 1
		lo ^= a << shift
		if shift > 0 {
			hi ^= a >> (64 - shift)
		}
	}
	return hi, lo
}

// reduce reduces the product polynomial (hi,lo) of two *reduced*
// operands (degree ≤ 2m−2) modulo x^m + g, folding the excess bits one
// byte-table lookup at a time instead of scanning bit-by-bit.
func (f *Field) reduce(hi, lo uint64) uint64 {
	// h = bits ≥ m of the product. Degree ≤ 2m−2 means h spans at most
	// m−1 ≤ 63 bits, so it fits one word for every 1 ≤ m ≤ 63.
	h := lo>>f.m | hi<<(64-f.m)
	acc := lo & f.max
	for i := 0; h != 0; i++ {
		acc ^= f.fold[i][h&0xff]
		h >>= 8
	}
	return acc
}

// reduceScan is the bit-by-bit scan reduction, kept as the reference for
// the table-driven reduce. The scan starts at degree `top`: products of
// reduced operands never exceed degree 2m−2, so Mul-shaped callers pass
// 2m−2 rather than the historical always-127 start (the extra 131−2m
// iterations tested bits that are provably zero).
func (f *Field) reduceScan(hi, lo uint64, top int) uint64 {
	for d := top; d >= f.m; d-- {
		var set bool
		if d >= 64 {
			set = hi&(1<<(d-64)) != 0
		} else {
			set = lo&(1<<d) != 0
		}
		if !set {
			continue
		}
		// Subtract (xor) (x^m + g)·x^(d-m): clears bit d, folds g in at d-m.
		if d >= 64 {
			hi ^= 1 << (d - 64)
		} else {
			lo ^= 1 << d
		}
		shift := d - f.m
		lo ^= f.g << shift
		if shift > 0 {
			hi ^= f.g >> (64 - shift)
		}
	}
	return lo & f.max
}

// Mul returns the field product a ⊗ b.
func (f *Field) Mul(a, b uint64) uint64 {
	hi, lo := clmul(a&f.max, b&f.max)
	return f.reduce(hi, lo)
}

// MulByX returns a ⊗ x (the generator), a single reduction step.
func (f *Field) MulByX(a uint64) uint64 {
	a &= f.max
	carry := a>>(f.m-1)&1 != 0
	a = (a << 1) & f.max
	if carry {
		a ^= f.g
	}
	return a
}

// Square returns a ⊗ a.
func (f *Field) Square(a uint64) uint64 { return f.Mul(a, a) }

// Pow returns a^e in the field (a^0 = 1).
func (f *Field) Pow(a uint64, e uint64) uint64 {
	result := uint64(1)
	base := a & f.max
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Square(base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a ≠ 0 via a^(2^m − 2).
func (f *Field) Inv(a uint64) (uint64, error) {
	if a&f.max == 0 {
		return 0, fmt.Errorf("gf2: inverse of zero")
	}
	return f.Pow(a, f.max-1), nil
}

// --- irreducibility search -------------------------------------------------

// polyMulMod multiplies two polynomials of degree < m modulo the degree-m
// polynomial x^m + g, all over GF(2). Semantically identical to field
// Mul but usable before a Field exists; it deliberately stays on the
// bit-serial multiply and bit-by-bit scan reduction so it shares no code
// with the windowed/table-driven fast path — FuzzGF2Mul uses it as the
// differential reference.
func polyMulMod(a, b, g uint64, m int) uint64 {
	hi, lo := clmulBitSerial(a, b)
	for d := 127; d >= m; d-- {
		var set bool
		if d >= 64 {
			set = hi&(1<<(d-64)) != 0
		} else {
			set = lo&(1<<d) != 0
		}
		if !set {
			continue
		}
		if d >= 64 {
			hi ^= 1 << (d - 64)
		} else {
			lo ^= 1 << d
		}
		shift := d - m
		lo ^= g << shift
		if shift > 0 {
			hi ^= g >> (64 - shift)
		}
	}
	return lo & ((uint64(1) << m) - 1)
}

// polyGCD returns gcd of two GF(2) polynomials given as bit masks.
func polyGCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, polyMod(a, b)
	}
	return a
}

// polyMod returns a mod b for GF(2) polynomials, b ≠ 0.
func polyMod(a, b uint64) uint64 {
	db := 63 - bits.LeadingZeros64(b)
	for {
		if a == 0 {
			return 0
		}
		da := 63 - bits.LeadingZeros64(a)
		if da < db {
			return a
		}
		a ^= b << (da - db)
	}
}

// isIrreducible applies Rabin's test to x^m + g.
func isIrreducible(g uint64, m int) bool {
	// h := x^(2^i) mod (x^m+g), starting from h = x.
	// Requirement 1: x^(2^m) ≡ x.
	// Requirement 2: for every prime p | m, gcd(x^(2^(m/p)) − x, x^m+g) = 1.
	primes := primeFactors(m)
	full := uint64(1)<<m | g // fits: m ≤ 63
	h := uint64(2)           // the polynomial x
	for i := 1; i <= m; i++ {
		h = polyMulMod(h, h, g, m)
		for _, p := range primes {
			if i == m/p {
				if polyGCD(full, h^2) != 1 {
					return false
				}
			}
		}
	}
	return h == 2
}

func primeFactors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// findIrreducible returns the smallest g (as an integer) such that
// x^m + g is irreducible over GF(2).
func findIrreducible(m int) (uint64, error) {
	if m == 1 {
		return 1, nil // x + 1
	}
	// The constant term must be 1, else x divides the polynomial.
	for g := uint64(1); g < uint64(1)<<m; g += 2 {
		if isIrreducible(g, m) {
			return g, nil
		}
	}
	return 0, fmt.Errorf("gf2: no irreducible polynomial of degree %d found", m)
}
