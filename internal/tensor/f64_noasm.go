//go:build !amd64 || race

package tensor

// useF64Asm reports whether the float64 assembly kernels run; without them
// (other architectures, and race builds, whose detector does not see
// assembly loads and stores) the Go loops do.
const useF64Asm = false

func matVec(dst Vector, m *Matrix, x Vector) { matVecGeneric(dst, m, x) }

func matMulTransB(dst, a, b *Matrix, bias Vector) { matMulTransBGeneric(dst, a, b, bias) }

func matMul(dst, a, b *Matrix) { matMulGeneric(dst, a, b) }

func addMatMulTransA(dst, a, b *Matrix, set bool) { addMatMulTransAGeneric(dst, a, b, set) }

func fastTanhInto(dst, src []float64) { fastTanhIntoGeneric(dst, src) }

func addVectors(dst, a, b Vector) { addVectorsGeneric(dst, a, b) }

func tanhBackward(dz, dout, y *Matrix, gb Vector) { tanhBackwardGeneric(dz, dout, y, gb) }

func adamStep(w, g, m, v []float64, c AdamCoeffs) { adamStepGeneric(w, g, m, v, c) }
