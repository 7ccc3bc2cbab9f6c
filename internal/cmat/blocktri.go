package cmat

// BlockTri is a block-tridiagonal matrix: the structure of the Hamiltonian
// H(kz), overlap S(kz) and dynamical matrix Φ(qz) in the paper, divided into
// bnum blocks of equal size (§2). Diag has length N; Upper and Lower have
// length N−1, with Upper[i] coupling block i to block i+1 and Lower[i]
// coupling block i+1 to block i.
type BlockTri struct {
	N     int // number of diagonal blocks (bnum)
	Bs    int // block size (NA/bnum · Norb for electrons, · N3D for phonons)
	Diag  []*Dense
	Upper []*Dense
	Lower []*Dense
}

// NewBlockTri allocates an n-block matrix with bs×bs zero blocks.
func NewBlockTri(n, bs int) *BlockTri {
	if n < 1 {
		panic("cmat: BlockTri needs at least one block")
	}
	bt := &BlockTri{N: n, Bs: bs,
		Diag:  make([]*Dense, n),
		Upper: make([]*Dense, n-1),
		Lower: make([]*Dense, n-1)}
	for i := 0; i < n; i++ {
		bt.Diag[i] = NewDense(bs, bs)
	}
	for i := 0; i < n-1; i++ {
		bt.Upper[i] = NewDense(bs, bs)
		bt.Lower[i] = NewDense(bs, bs)
	}
	return bt
}

// Dim returns the full matrix dimension N·Bs.
func (b *BlockTri) Dim() int { return b.N * b.Bs }

// ToDense expands the block-tridiagonal matrix into a dense matrix; intended
// for validation on small problems.
func (b *BlockTri) ToDense() *Dense {
	n := b.Dim()
	out := NewDense(n, n)
	for i := 0; i < b.N; i++ {
		out.SetSubmatrix(i*b.Bs, i*b.Bs, b.Diag[i])
		if i+1 < b.N {
			out.SetSubmatrix(i*b.Bs, (i+1)*b.Bs, b.Upper[i])
			out.SetSubmatrix((i+1)*b.Bs, i*b.Bs, b.Lower[i])
		}
	}
	return out
}

// Clone returns a deep copy.
func (b *BlockTri) Clone() *BlockTri {
	out := NewBlockTri(b.N, b.Bs)
	for i := range b.Diag {
		out.Diag[i].CopyFrom(b.Diag[i])
	}
	for i := range b.Upper {
		out.Upper[i].CopyFrom(b.Upper[i])
		out.Lower[i].CopyFrom(b.Lower[i])
	}
	return out
}

// Scale multiplies all blocks by alpha in place.
func (b *BlockTri) Scale(alpha complex128) {
	for _, d := range b.Diag {
		d.ScaleInPlace(alpha)
	}
	for i := range b.Upper {
		b.Upper[i].ScaleInPlace(alpha)
		b.Lower[i].ScaleInPlace(alpha)
	}
}

// IsHermitian reports whether the full matrix is Hermitian within tol:
// every diagonal block Hermitian and Lower[i] = Upper[i]^H.
func (b *BlockTri) IsHermitian(tol float64) bool {
	for _, d := range b.Diag {
		if !d.IsHermitian(tol) {
			return false
		}
	}
	for i := range b.Upper {
		if !b.Lower[i].Equalish(b.Upper[i].ConjTranspose(), tol) {
			return false
		}
	}
	return true
}

// ShiftDiag adds alpha·S to the diagonal structure of b block-wise, where S
// is another block-tridiagonal matrix (used to form E·S − H).
func (b *BlockTri) ShiftDiag(alpha complex128, s *BlockTri) *BlockTri {
	out := NewBlockTri(b.N, b.Bs)
	b.ShiftDiagInto(out, alpha, s)
	return out
}

// ShiftDiagInto writes alpha·S − b into dst block-wise in a single pass,
// without intermediate allocations. dst must have b's shape.
func (b *BlockTri) ShiftDiagInto(dst *BlockTri, alpha complex128, s *BlockTri) {
	if b.N != s.N || b.Bs != s.Bs || dst.N != b.N || dst.Bs != b.Bs {
		panic("cmat: ShiftDiagInto shape mismatch")
	}
	shift := func(d, bb, ss *Dense) {
		for j := range d.Data {
			d.Data[j] = alpha*ss.Data[j] - bb.Data[j]
		}
	}
	for i := range b.Diag {
		shift(dst.Diag[i], b.Diag[i], s.Diag[i])
	}
	for i := range b.Upper {
		shift(dst.Upper[i], b.Upper[i], s.Upper[i])
		shift(dst.Lower[i], b.Lower[i], s.Lower[i])
	}
}

// ShiftIdentityInto writes alpha·I − b into dst block-wise (the phonon
// operator ω²·I − Φ) without materializing a block identity. dst must have
// b's shape.
func (b *BlockTri) ShiftIdentityInto(dst *BlockTri, alpha complex128) {
	if dst.N != b.N || dst.Bs != b.Bs {
		panic("cmat: ShiftIdentityInto shape mismatch")
	}
	for i := range b.Diag {
		d, bb := dst.Diag[i].Data, b.Diag[i].Data
		for j := range bb {
			d[j] = -bb[j]
		}
		for j := 0; j < b.Bs; j++ {
			d[j*b.Bs+j] += alpha
		}
	}
	for i := range b.Upper {
		du, bu := dst.Upper[i].Data, b.Upper[i].Data
		dl, bl := dst.Lower[i].Data, b.Lower[i].Data
		for j := range bu {
			du[j] = -bu[j]
			dl[j] = -bl[j]
		}
	}
}
