package sdfg

import "fmt"

// Memlet propagation (§4.1): given the index expressions a tasklet uses and
// the ranges of the surrounding map parameters, compute, per array
// dimension, the interval of touched elements and the number of accesses.
// DaCe "automatically computes contiguous and strided ranges, but can only
// over-approximate some irregular accesses" — an indirection takes a
// manual model instead (IndirectionModel).

// PropagatedDim is the propagation result for one subscript dimension.
type PropagatedDim struct {
	// Bounds is the interval of touched indices, [Lo, Hi).
	Bounds Range
	// Accesses is the number of (not necessarily unique) accesses this
	// dimension contributes: the product of the sizes of the map parameters
	// appearing in the subscript.
	Accesses Expr
}

// UniqueLength returns the number of distinct indices touched, clamped to
// the array dimension n: min(n, Hi−Lo) — e.g. min(Nkz, skz+sqz−1) for the
// kz−qz subscript in the paper.
func (d PropagatedDim) UniqueLength(n Expr) Expr {
	return MinE(n, d.Bounds.Length())
}

// PropagateExpr computes the interval an affine expression spans when its
// map parameters range over scope, plus the access count. Supported forms:
// literals, symbols (map parameters or free symbols), +, −, and
// multiplication by a literal. Free symbols are treated as fixed points.
func PropagateExpr(e Expr, scope map[string]Range) (PropagatedDim, error) {
	lo, hi, acc, err := propagate(e, scope)
	if err != nil {
		return PropagatedDim{}, err
	}
	return PropagatedDim{Bounds: Range{lo, Add(hi, Lit(1))}, Accesses: acc}, nil
}

// propagate returns the closed interval [lo, hi] spanned by e and the
// access-count product.
func propagate(e Expr, scope map[string]Range) (lo, hi, acc Expr, err error) {
	switch v := e.(type) {
	case litExpr:
		return e, e, Lit(1), nil
	case symExpr:
		if r, ok := scope[string(v)]; ok {
			return r.Lo, Sub(r.Hi, Lit(1)), r.Length(), nil
		}
		return e, e, Lit(1), nil
	case binExpr:
		alo, ahi, aacc, err := propagate(v.a, scope)
		if err != nil {
			return nil, nil, nil, err
		}
		blo, bhi, bacc, err := propagate(v.b, scope)
		if err != nil {
			return nil, nil, nil, err
		}
		switch v.op {
		case '+':
			return Add(alo, blo), Add(ahi, bhi), Mul(aacc, bacc), nil
		case '-':
			return Sub(alo, bhi), Sub(ahi, blo), Mul(aacc, bacc), nil
		case '*':
			// Only literal scaling keeps the interval affine.
			if c, ok := v.a.(litExpr); ok {
				if c >= 0 {
					return Mul(v.a, blo), Mul(v.a, bhi), bacc, nil
				}
				return Mul(v.a, bhi), Mul(v.a, blo), bacc, nil
			}
			if c, ok := v.b.(litExpr); ok {
				if c >= 0 {
					return Mul(alo, v.b), Mul(ahi, v.b), aacc, nil
				}
				return Mul(ahi, v.b), Mul(alo, v.b), aacc, nil
			}
			return nil, nil, nil, fmt.Errorf("sdfg: cannot propagate non-affine product %s", e)
		default:
			return nil, nil, nil, fmt.Errorf("sdfg: cannot propagate %s", e)
		}
	}
	return nil, nil, nil, fmt.Errorf("sdfg: cannot propagate expression %T", e)
}

// IndirectionModel supplies the performance-engineer-provided propagation
// for a data-dependent subscript, like the paper's approximation of
// f(a, b) over an atom tile: [max(0, ta·sa − NB/2), min(NA, (ta+1)·sa + NB/2)).
type IndirectionModel func(ind IndirectIndex, scope map[string]Range) (PropagatedDim, error)

// NeighborIndirectionModel returns the paper's manual model for the
// neighbor indirection f(a, b): propagated over an atom-tile parameter
// (named atomParam) of size sa with NB neighbors per atom, the touched
// range is [ta·sa − NB/2, (ta+1)·sa + NB/2) clamped to [0, NA), with sa·NB
// total accesses and min(NA, sa + NB) unique indices (§4.1).
func NeighborIndirectionModel(atomParam string, na, nb Expr) IndirectionModel {
	return func(ind IndirectIndex, scope map[string]Range) (PropagatedDim, error) {
		r, ok := scope[atomParam]
		if !ok {
			return PropagatedDim{}, fmt.Errorf("sdfg: neighbor model: %q not in scope", atomParam)
		}
		half := Div(nb, Lit(2))
		lo := MaxE(Lit(0), Sub(r.Lo, half))
		hi := MinE(na, Add(r.Hi, half))
		return PropagatedDim{
			Bounds:   Range{lo, hi},
			Accesses: Mul(r.Length(), nb),
		}, nil
	}
}
