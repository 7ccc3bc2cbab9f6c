package sdfg

import (
	"fmt"
	"slices"
)

// Movement prediction: the "summed symbolic expressions" of Fig. 4 — for
// every array, how many element accesses a program performs, computed from
// the map structure without executing any tasklet. This is the quantity
// the paper's §4.1 methodology minimizes; tests validate the prediction
// against the interpreter's measured counters.

// Movement is the predicted element-access totals of one program run.
type Movement struct {
	Reads, Writes map[string]int64
}

// MovementSummary predicts per-array access counts under the given symbol
// bindings. Maps whose ranges are independent of enclosing parameters are
// counted in closed form (domain size × accesses inside); dependent ranges
// (e.g. after tiling) are handled by iterating the enclosing domain.
func (p *Program) MovementSummary(env Env) (*Movement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Movement{Reads: map[string]int64{}, Writes: map[string]int64{}}
	scope := Env{}
	for k, v := range env {
		scope[k] = v
	}
	for _, st := range p.States {
		if err := countOps(st.Ops, scope, 1, m); err != nil {
			return nil, fmt.Errorf("state %q: %w", st.Name, err)
		}
	}
	return m, nil
}

// rangesIndependent reports whether every range of the map can be evaluated
// in the current scope without binding the map's own parameters (they never
// can reference their own scope's params in a valid SDFG, so this detects
// dependence on *enclosing* parameters that are not yet bound).
func rangesIndependent(mp *MapOp, scope Env) bool {
	for _, r := range mp.Ranges {
		if !evalOK(r.Lo, scope) || !evalOK(r.Hi, scope) {
			return false
		}
	}
	return true
}

func evalOK(e Expr, env Env) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	e.Eval(env)
	return true
}

func countOps(ops []Op, scope Env, mult int64, m *Movement) error {
	for _, op := range ops {
		switch v := op.(type) {
		case *MapOp:
			if err := countMap(v, scope, mult, m); err != nil {
				return err
			}
		case *Tasklet:
			for _, in := range v.Inputs {
				m.Reads[in.Array] += mult
				countIndirections(in.Index, mult, m)
			}
			m.Writes[v.Output.Array] += mult
			countIndirections(v.Output.Index, mult, m)
		default:
			return fmt.Errorf("sdfg: unknown op %T", op)
		}
	}
	return nil
}

func countIndirections(idx []IndexExpr, mult int64, m *Movement) {
	for _, ix := range idx {
		if ind, ok := ix.(IndirectIndex); ok {
			m.Reads[ind.Table] += mult
			countIndirections(ind.At, mult, m)
		}
	}
}

func countMap(mp *MapOp, scope Env, mult int64, m *Movement) error {
	if rangesIndependent(mp, scope) {
		// Closed form: multiply by the domain volume. Body ranges may still
		// depend on this map's params, so bind representative values? No —
		// recurse with the params bound to their lower bounds only if the
		// body is itself independent; otherwise fall through to iteration.
		volume := int64(1)
		for _, r := range mp.Ranges {
			l := r.Length().Eval(scope)
			if l < 0 {
				l = 0
			}
			volume *= l
		}
		if volume == 0 {
			return nil
		}
		if bodyIndependent(mp.Body, scope, mp.Params) {
			return countOps(mp.Body, scope, mult*volume, m)
		}
	}
	// Iterative fallback: walk the domain (used for tiled maps whose inner
	// ranges depend on the tile parameter).
	lows := make([]int64, len(mp.Params))
	highs := make([]int64, len(mp.Params))
	// Ranges may depend on outer params already in scope.
	for i, r := range mp.Ranges {
		if !evalOK(r.Lo, scope) || !evalOK(r.Hi, scope) {
			return fmt.Errorf("sdfg: cannot bound map %q range %d in scope", mp.Name, i)
		}
		lows[i] = r.Lo.Eval(scope)
		highs[i] = r.Hi.Eval(scope)
		if highs[i] <= lows[i] {
			return nil
		}
	}
	idx := slices.Clone(lows)
	saved := make([]int64, len(mp.Params))
	had := make([]bool, len(mp.Params))
	for i, p := range mp.Params {
		saved[i], had[i] = scope[p]
	}
	defer func() {
		for i, p := range mp.Params {
			if had[i] {
				scope[p] = saved[i]
			} else {
				delete(scope, p)
			}
		}
	}()
	for {
		for i, p := range mp.Params {
			scope[p] = idx[i]
		}
		// Inner ranges are re-evaluated under the bound params.
		if err := countOps(mp.Body, scope, mult, m); err != nil {
			return err
		}
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < highs[d] {
				break
			}
			idx[d] = lows[d]
			// Re-evaluate this dimension's bounds? Not needed: bounds of a
			// single map cannot depend on its own parameters.
		}
		if d < 0 {
			return nil
		}
	}
}

// bodyIndependent reports whether nested map ranges avoid the given params
// (then the closed-form volume multiplication is exact).
func bodyIndependent(ops []Op, scope Env, params []string) bool {
	for _, op := range ops {
		if mp, ok := op.(*MapOp); ok {
			for _, r := range mp.Ranges {
				for _, p := range params {
					if ContainsSym(r.Lo, p) || ContainsSym(r.Hi, p) {
						return false
					}
				}
			}
			if !bodyIndependent(mp.Body, scope, params) {
				return false
			}
		}
	}
	return true
}
