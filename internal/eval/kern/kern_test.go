package kern

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the golden vectors are stable
// across Go releases (unlike math/rand stream details, its output is
// pinned here by construction).
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(uint32(*r>>33)) / float64(1<<32)
}

func (r *lcg) pos(lo, hi float64) float64 { return lo + (hi-lo)*r.next() }

// fill populates q rows of per-lane columns with strictly positive costs
// in the regimes the chains see in practice.
func fillColumns(r *lcg, q int, cols ...[]float64) {
	for _, col := range cols {
		for i := 0; i < q*Width; i++ {
			col[i] = r.pos(0.01, 1.5)
		}
	}
}

func buf(q int) []float64 { return make([]float64, q*Width) }

// TestGoldenFIFOChain anchors the FIFO load chain on a hand-computed
// vector, then checks the position-major layout and lane independence on
// power-of-two columns, where every product and sum is exact.
func TestGoldenFIFOChain(t *testing.T) {
	// Hand-checked q=2 vector: uniform lanes with wd[row0]=0.6 and
	// invCW[row1]=0.5 give P1 = (1*0.6)*0.5 and the sums follow by one
	// rounded multiply-and-add each (computed here from the slice values so
	// no compile-time constant folding sneaks in).
	q := 2
	p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
	sp, sc, sd := buf(1), buf(1), buf(1)
	for l := 0; l < Width; l++ {
		c[l], d[l] = 0.4, 0.8
		wd[l], invCW[Width+l] = 0.6, 0.5
		c[Width+l], d[Width+l] = 0.2, 0.1
	}
	FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
	for l := 0; l < Width; l++ {
		pk := p[0] * wd[l]
		pk = float64(pk * invCW[Width+l])
		expSp := 1 + pk
		expSc := c[l] + float64(pk*c[Width+l])
		expSd := d[l] + float64(pk*d[Width+l])
		if p[l] != 1 || p[Width+l] != pk {
			t.Fatalf("chain rows = %v, %v; want 1, %v", p[l], p[Width+l], pk)
		}
		if sp[l] != expSp || sc[l] != expSc || sd[l] != expSd {
			t.Fatalf("sums = %v %v %v; want %v %v %v", sp[l], sc[l], sd[l], expSp, expSc, expSd)
		}
	}

	// Lane l steps by r_l = wd·invCW = 2^(l%3 - l%2) at every row, with
	// c = 1/4 and d = 1/2, so P_k = r_l^k and sp = Σ r_l^k, sc = sp/4,
	// sd = sp/2 hold exactly.
	for _, q := range []int{1, 2, 3, 5, 9} {
		p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
		for pos := 0; pos < q; pos++ {
			for l := 0; l < Width; l++ {
				i := pos*Width + l
				c[i], d[i] = 0.25, 0.5
				wd[i], invCW[i] = math.Ldexp(1, -(l%2)), math.Ldexp(1, l%3)
			}
		}
		FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
		for l := 0; l < Width; l++ {
			e := l%3 - l%2
			sum := 0.0
			for pos := 0; pos < q; pos++ {
				want := math.Ldexp(1, pos*e)
				if got := p[pos*Width+l]; got != want {
					t.Fatalf("q=%d lane %d: P[%d] = %v, want %v", q, l, pos, got, want)
				}
				sum += want
			}
			if sp[l] != sum || sc[l] != sum/4 || sd[l] != sum/2 {
				t.Fatalf("q=%d lane %d: sums = %v %v %v, want %v %v %v",
					q, l, sp[l], sc[l], sd[l], sum, sum/4, sum/2)
			}
		}
	}
}

// TestGoldenFIFODual checks the forward dual chain
//
//	u_k = (1 - dc_k·Σ_{j<k} u_j)·invWD_k,  v_k = (-c_k - dc_k·Σ_{j<k} v_j)·invWD_k
//
// on a hand-computed q=3 vector with dc = invWD = 1/2, where every value
// is a short dyadic fraction and so exact. Lane l has c = (l+1)/4; v is
// linear in c, so lane l's v is (l+1) times lane 0's.
func TestGoldenFIFODual(t *testing.T) {
	const q = 3
	c, dc, invWD := buf(q), buf(q), buf(q)
	for pos := 0; pos < q; pos++ {
		for l := 0; l < Width; l++ {
			i := pos*Width + l
			c[i], dc[i], invWD[i] = 0.25*float64(l+1), 0.5, 0.5
		}
	}
	wantU := [q]float64{0.5, 0.375, 0.28125}
	wantV := [q]float64{-0.125, -0.09375, -0.0703125}
	u, v, pu, pv := buf(q), buf(q), buf(1), buf(1)
	FIFODual(q, c, dc, invWD, u, v, pu, pv)
	for l := 0; l < Width; l++ {
		k := float64(l + 1)
		for pos := 0; pos < q; pos++ {
			i := pos*Width + l
			if u[i] != wantU[pos] || v[i] != k*wantV[pos] {
				t.Fatalf("lane %d row %d: u, v = %v, %v; want %v, %v", l, pos, u[i], v[i], wantU[pos], k*wantV[pos])
			}
		}
		if pu[l] != 1.15625 || pv[l] != k*-0.2890625 {
			t.Fatalf("lane %d: sums = %v, %v; want 1.15625, %v", l, pu[l], pv[l], k*-0.2890625)
		}
	}
}

// TestGoldenFIFOLambdaOK pins the certificate scan's comparison: a lane
// passes iff λ = u + t·v >= -tol at every row, the boundary -tol passes,
// and a NaN or -Inf λ anywhere fails the lane.
func TestGoldenFIFOLambdaOK(t *testing.T) {
	const tol = 1e-10
	const q = 2
	u, v, tt := buf(q), buf(q), buf(1)
	for i := range u {
		u[i], v[i] = 1, 0.5
	}
	for l := range tt[:Width] {
		tt[l] = 2
	}
	u[0], v[0] = -tol, 0                   // lane 0: λ = -tol at row 0, the boundary: passes
	u[1], v[1] = -2*tol, 0                 // lane 1: just below the boundary: fails
	v[2] = math.NaN()                      // lane 2: NaN λ: fails
	u[Width+3] = math.Inf(-1)              // lane 3: -Inf λ at row 1 only: fails
	v[Width+4] = math.Inf(1)               // lane 4: +Inf λ is >= -tol: passes
	u[5], v[5] = math.Inf(1), math.Inf(-1) // lane 5: Inf - Inf is NaN: fails
	v[Width+6] = -1                        // lane 6: λ = 1 + 2·(-1) = -1 at row 1: fails
	// lane 7: λ = 2 at both rows: passes
	const want = 0b1001_0001
	if got := FIFOLambdaOK(q, u, v, tt, tol); got != want {
		t.Fatalf("mask %08b, want %08b", got, want)
	}
}

// TestGoldenLIFOChain checks the LIFO chain P_0 = invCWD_0,
// P_k = P_{k-1}·w_{k-1}·invCWD_k on power-of-two columns: lane l has
// w = 2^-(l%4) and invCWD = 1/2, so P_k = 2^(-1-k(1+l%4)) and the sum sp
// are exact.
func TestGoldenLIFOChain(t *testing.T) {
	for _, q := range []int{1, 2, 5, 8, 9} {
		p, w, invCWD, sp := buf(q), buf(q), buf(q), buf(1)
		for pos := 0; pos < q; pos++ {
			for l := 0; l < Width; l++ {
				w[pos*Width+l], invCWD[pos*Width+l] = math.Ldexp(1, -(l%4)), 0.5
			}
		}
		LIFOChain(q, p, w, invCWD, sp)
		for l := 0; l < Width; l++ {
			sum := 0.0
			for pos := 0; pos < q; pos++ {
				want := math.Ldexp(1, -1-pos*(1+l%4))
				if got := p[pos*Width+l]; got != want {
					t.Fatalf("q=%d lane %d: P[%d] = %v, want %v", q, l, pos, got, want)
				}
				sum += want
			}
			if sp[l] != sum {
				t.Fatalf("q=%d lane %d: sp = %v, want %v", q, l, sp[l], sum)
			}
		}
	}
}

// TestGoldenLIFODualOK checks the backward dual chain
// λ_k = (1 - g_k·Σ_{j>k} λ_j)·invCWD_k on hand-computed q=2 lanes. With
// g = invCWD = 1/2, λ_1 = 1/2 and λ_0 = 3/8. Raising g_0 to 4 makes
// λ_0 = -invCWD_0, which lands on the -tol boundary (passes) or just past
// it (fails); a NaN g fails its lane and poisons its sum.
func TestGoldenLIFODualOK(t *testing.T) {
	tol := 1e-10 // a variable, so the expected sums round as the kernel's do
	const q = 2
	g, invCWD, pu := buf(q), buf(q), buf(1)
	for i := range g {
		g[i], invCWD[i] = 0.5, 0.5
	}
	for l := range pu[:Width] {
		pu[l] = 7 // LIFODualOK zeroes the suffix sums on entry
	}
	g[1], invCWD[1] = 4, tol   // lane 1: λ_0 = -tol: passes
	g[2], invCWD[2] = 4, 2*tol // lane 2: λ_0 = -2·tol: fails
	g[3] = 8                   // lane 3: λ_0 = (1 - 4)/2 = -1.5: fails
	g[Width+4] = math.NaN()    // lane 4: row 1 is scanned first, NaN·0 = NaN: fails
	g[5] = math.NaN()          // lane 5: NaN at row 0: fails
	const want = 0b1100_0011
	if got := LIFODualOK(q, g, invCWD, pu, tol); got != want {
		t.Fatalf("mask %08b, want %08b", got, want)
	}
	wantPu := []float64{0.875, 0.5 - tol, 0.5 - 2*tol, -1, math.NaN(), math.NaN(), 0.875, 0.875}
	for l, w := range wantPu {
		if pu[l] != w && !(math.IsNaN(w) && math.IsNaN(pu[l])) {
			t.Fatalf("lane %d: pu = %v, want %v", l, pu[l], w)
		}
	}
}

// TestGoldenExtremes pushes underflow and overflow magnitudes through the
// FIFO chain. Lane l%3 == 0 multiplies by 1e-80 per row: P_4 ≈ 1e-320 is
// subnormal (no flush to zero), P_5 underflows to 0, and every product
// is far below half an ulp of the row-0 seeds, so the sums stay at them.
// Lane l%3 == 1 multiplies by 1e80 per row: P_4 overflows to +Inf and so
// do all three sums. Lane l%3 == 2 multiplies by 0.5·2 = 1: P ≡ 1, sp = q,
// and sc, sd are the left-to-right sums of c and d.
func TestGoldenExtremes(t *testing.T) {
	const q = 6
	p, c, d, wd, invCW := buf(q), buf(q), buf(q), buf(q), buf(q)
	r := lcg(99)
	fillColumns(&r, q, c, d)
	for pos := 0; pos < q; pos++ {
		for l := 0; l < Width; l++ {
			i := pos*Width + l
			switch l % 3 {
			case 0:
				wd[i], invCW[i] = 1e-80, 1
			case 1:
				wd[i], invCW[i] = 1, 1e80
			case 2:
				wd[i], invCW[i] = 0.5, 2
			}
		}
	}
	sp, sc, sd := buf(1), buf(1), buf(1)
	FIFOChain(q, p, c, d, wd, invCW, sp, sc, sd)
	inf := math.Inf(1)
	for l := 0; l < Width; l++ {
		at := func(pos int) float64 { return p[pos*Width+l] }
		switch l % 3 {
		case 0:
			if p4 := at(4); !(p4 > 0 && p4 < 0x1p-1022) || at(5) != 0 {
				t.Fatalf("lane %d: P4, P5 = %v, %v; want subnormal, 0", l, p4, at(5))
			}
			if sp[l] != 1 || sc[l] != c[l] || sd[l] != d[l] {
				t.Fatalf("lane %d: sums = %v %v %v, want 1 %v %v", l, sp[l], sc[l], sd[l], c[l], d[l])
			}
		case 1:
			if !(at(3) > 1e239 && at(3) < inf) || at(4) != inf || at(5) != inf {
				t.Fatalf("lane %d: P3..P5 = %v %v %v, want ~1e240 +Inf +Inf", l, at(3), at(4), at(5))
			}
			if sp[l] != inf || sc[l] != inf || sd[l] != inf {
				t.Fatalf("lane %d: sums = %v %v %v, want +Inf", l, sp[l], sc[l], sd[l])
			}
		case 2:
			sumC, sumD := 0.0, 0.0
			for pos := 0; pos < q; pos++ {
				if at(pos) != 1 {
					t.Fatalf("lane %d: P[%d] = %v, want 1", l, pos, at(pos))
				}
				sumC += c[pos*Width+l]
				sumD += d[pos*Width+l]
			}
			if sp[l] != q || sc[l] != sumC || sd[l] != sumD {
				t.Fatalf("lane %d: sums = %v %v %v, want %d %v %v", l, sp[l], sc[l], sd[l], q, sumC, sumD)
			}
		}
	}
}
