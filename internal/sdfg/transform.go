package sdfg

import (
	"fmt"
	"slices"
)

// Graph transformations (§4.2). Each transformation mutates the program in
// place and preserves the computed values; tests execute programs before and
// after each transformation and compare outputs.

// TileMap applies the Map Tiling transformation of §4.1 to parameter param
// of map m: the map is split into an outer map over tiles (parameter
// "t"+param) and m itself iterating within the tile,
//
//	param ∈ [t·s, min(hi, (t+1)·s)).
//
// The returned outer map replaces m in its parent; callers pass the slice
// holding m (state Ops or parent body).
func TileMap(parent *[]Op, m *MapOp, param string, tile int64) (*MapOp, error) {
	pi := slices.Index(m.Params, param)
	if pi < 0 {
		return nil, fmt.Errorf("sdfg: map %q has no parameter %q", m.Name, param)
	}
	pos := slices.IndexFunc(*parent, func(op Op) bool { return op == Op(m) })
	if pos < 0 {
		return nil, fmt.Errorf("sdfg: map %q not found in parent scope", m.Name)
	}
	r := m.Ranges[pi]
	tp := "t" + param
	outer := &MapOp{
		Name:   m.Name + "_tiled_" + param,
		Params: []string{tp},
		// ceil((hi − lo)/tile) tiles.
		Ranges: []Range{{Lit(0), Div(Add(r.Length(), Lit(tile-1)), Lit(tile))}},
		Body:   []Op{m},
	}
	base := Add(r.Lo, Mul(Sym(tp), Lit(tile)))
	m.Ranges[pi] = Range{base, MinE(r.Hi, Add(base, Lit(tile)))}
	(*parent)[pos] = outer
	return outer, nil
}

// ExpandMap applies Map Expansion (Fig. 11b): the first k parameters stay in
// m, the rest move to a new nested inner map.
func ExpandMap(m *MapOp, k int) (*MapOp, error) {
	if k <= 0 || k >= len(m.Params) {
		return nil, fmt.Errorf("sdfg: cannot expand map %q at position %d of %d", m.Name, k, len(m.Params))
	}
	inner := &MapOp{
		Name:   m.Name + "_inner",
		Params: append([]string(nil), m.Params[k:]...),
		Ranges: append([]Range(nil), m.Ranges[k:]...),
		Body:   m.Body,
	}
	m.Params = m.Params[:k]
	m.Ranges = m.Ranges[:k]
	m.Body = []Op{inner}
	return inner, nil
}

// accessUsesParam reports whether access a references map parameter p.
func accessUsesParam(a Access, p string) bool {
	var usesIx func(ix IndexExpr) bool
	usesIx = func(ix IndexExpr) bool {
		switch v := ix.(type) {
		case ExprIndex:
			return ContainsSym(v.E, p)
		case IndirectIndex:
			for _, sub := range v.At {
				if usesIx(sub) {
					return true
				}
			}
		}
		return false
	}
	for _, ix := range a.Index {
		if usesIx(ix) {
			return true
		}
	}
	return false
}

func taskletUsesParam(t *Tasklet, p string) bool {
	for _, in := range t.Inputs {
		if accessUsesParam(in, p) {
			return true
		}
	}
	return accessUsesParam(t.Output, p)
}

// FissionMap applies the Map Fission transformation (Fig. 9): a map whose
// body is a sequence of tasklets is split into one map per tasklet, each
// retaining only the parameters that tasklet references. The tasklets must
// already exchange intermediate values through (transient) arrays indexed by
// map parameters — the builder in this package constructs bodies that way,
// mirroring how DaCe introduces multi-dimensional transients when it
// distributes a map.
func FissionMap(parent *[]Op, m *MapOp) ([]*MapOp, error) {
	pos := slices.IndexFunc(*parent, func(op Op) bool { return op == Op(m) })
	if pos < 0 {
		return nil, fmt.Errorf("sdfg: map %q not found in parent scope", m.Name)
	}
	var tasklets []*Tasklet
	for _, op := range m.Body {
		t, ok := op.(*Tasklet)
		if !ok {
			return nil, fmt.Errorf("sdfg: FissionMap needs a flat tasklet body, found %T", op)
		}
		tasklets = append(tasklets, t)
	}
	var out []*MapOp
	for i, t := range tasklets {
		var params []string
		var ranges []Range
		for d, p := range m.Params {
			if taskletUsesParam(t, p) {
				params = append(params, p)
				ranges = append(ranges, m.Ranges[d])
			}
		}
		out = append(out, &MapOp{
			Name:   fmt.Sprintf("%s_fission_%d", m.Name, i),
			Params: params,
			Ranges: ranges,
			Body:   []Op{t},
		})
	}
	news := make([]Op, len(out))
	for i, mo := range out {
		news[i] = mo
	}
	*parent = slices.Replace(*parent, pos, pos+1, news...)
	return out, nil
}

// FuseMaps applies the Map Fusion transformation (Fig. 12): two adjacent
// maps with identical parameter lists and ranges are merged into one. The
// caller is responsible for the legality condition (the second map only
// consumes per-iteration values the first produced at the same index).
func FuseMaps(parent *[]Op, a, b *MapOp) (*MapOp, error) {
	pa := slices.IndexFunc(*parent, func(op Op) bool { return op == Op(a) })
	pb := slices.IndexFunc(*parent, func(op Op) bool { return op == Op(b) })
	if pa < 0 || pb < 0 || pb != pa+1 {
		return nil, fmt.Errorf("sdfg: FuseMaps requires adjacent maps")
	}
	if !slices.Equal(a.Params, b.Params) {
		return nil, fmt.Errorf("sdfg: FuseMaps parameter mismatch %v vs %v", a.Params, b.Params)
	}
	for i := range a.Ranges {
		if a.Ranges[i].String() != b.Ranges[i].String() {
			return nil, fmt.Errorf("sdfg: FuseMaps range mismatch on %q", a.Params[i])
		}
	}
	fused := &MapOp{Name: a.Name + "+" + b.Name, Params: a.Params, Ranges: a.Ranges,
		Body: append(append([]Op{}, a.Body...), b.Body...)}
	*parent = slices.Replace(*parent, pa, pb+1, Op(fused))
	return fused, nil
}

// PermuteArray applies the Data-Layout transformation of Fig. 10(c): array
// dimensions are reordered by perm (new dim i holds old dim perm[i]) and
// every access in the program is rewritten to match. Values are unchanged —
// only the memory order, which the interpreter's strides reflect.
func PermuteArray(prog *Program, array string, perm []int) error {
	arr, ok := prog.Arrays[array]
	if !ok {
		return fmt.Errorf("sdfg: unknown array %q", array)
	}
	if len(perm) != len(arr.Shape) {
		return fmt.Errorf("sdfg: permutation rank %d for array rank %d", len(perm), len(arr.Shape))
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return fmt.Errorf("sdfg: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	newShape := make([]Expr, len(perm))
	for i, p := range perm {
		newShape[i] = arr.Shape[p]
	}
	arr.Shape = newShape
	var walk func(ops []Op)
	permuteAccess := func(a *Access) {
		if a.Array != array {
			return
		}
		ni := make([]IndexExpr, len(perm))
		for i, p := range perm {
			ni[i] = a.Index[p]
		}
		a.Index = ni
	}
	walk = func(ops []Op) {
		for _, op := range ops {
			switch v := op.(type) {
			case *MapOp:
				walk(v.Body)
			case *Tasklet:
				for i := range v.Inputs {
					permuteAccess(&v.Inputs[i])
				}
				permuteAccess(&v.Output)
			}
		}
	}
	for _, s := range prog.States {
		walk(s.Ops)
	}
	return nil
}
