package rgf

import (
	"sync"

	"negfsim/internal/cmat"
)

// couplings holds the support of every coupling block of one operator:
// upper[i] of A[i,i+1] and lower[i] of A[i+1,i]. A device couples only the
// orbitals at a block's boundary, so on gf_wire each coupling has nonzeros
// in one range of 32 of its 64 rows and one of 32 of its 64 columns, and a
// phonon operator whose Φ has no inter-block coupling has empty supports.
// The supports are worked out once per operator; the recursions run every
// product with a coupling block over them (cmat.Span).
type couplings struct {
	upper, lower []cmat.Support
}

// couplingsPool recycles couplings, so a point solve in steady state draws
// its supports without allocating.
var couplingsPool = sync.Pool{New: func() any { return new(couplings) }}

// forceFullSupports makes every support full, so every product runs whole:
// the reference the bitwise tests compare the support path against.
var forceFullSupports bool

// supportOf is m's support, or the full support under forceFullSupports.
func supportOf(m *cmat.Dense) cmat.Support {
	if forceFullSupports {
		return cmat.Support{}
	}
	return m.Support()
}

// couplingsOf works out the supports of a's coupling blocks. The caller
// releases the result.
func couplingsOf(a *cmat.BlockTri) *couplings {
	c := couplingsPool.Get().(*couplings)
	c.upper, c.lower = c.upper[:0], c.lower[:0]
	for i := range a.Upper {
		c.upper = append(c.upper, supportOf(a.Upper[i]))
		c.lower = append(c.lower, supportOf(a.Lower[i]))
	}
	return c
}

// release returns c to the pool; c must not be used afterwards. A nil c is
// ignored.
func (c *couplings) release() {
	if c != nil {
		couplingsPool.Put(c)
	}
}
