//go:build !amd64 || race

package tensor

// useF64Asm reports whether the float64 assembly kernels run; without them
// (other architectures, and race builds, whose detector does not see
// assembly loads and stores) the Go loops do.
const useF64Asm = false

func matVec(dst Vector, m *Matrix, x Vector) { matVecGeneric(dst, m, x) }

func matMulTransBRange(dst, a, b *Matrix, bias Vector, lo, hi int) {
	matMulTransBRangeGeneric(dst, a, b, bias, lo, hi)
}

func matMulRange(dst, a, b *Matrix, lo, hi int) { matMulRangeGeneric(dst, a, b, lo, hi) }

func addMatMulTransARange(dst, a, b *Matrix, set bool, lo, hi int) {
	addMatMulTransARangeGeneric(dst, a, b, set, lo, hi)
}

func fastTanhInto(dst, src []float64) { fastTanhIntoGeneric(dst, src) }

func addVectors(dst, a, b Vector) { addVectorsGeneric(dst, a, b) }

func tanhBackward(dz, dout, y *Matrix, gb Vector) { tanhBackwardGeneric(dz, dout, y, gb) }

func adamStep(w, g, m, v []float64, c AdamCoeffs) { adamStepGeneric(w, g, m, v, c) }
