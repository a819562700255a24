package tensor

import "math"

// Pow sets x[i] = float32(math.Pow(float64(x[i]), y)) for every x[i] > 0
// and leaves the other entries (zeros, negatives, NaNs) as they are: the
// temperature step of stochastic sampling, with y = 1/T. With the pow
// kernel and a y in its domain, whole blocks of four run on the kernel
// with math.Pow's bits, and a tail runs as a block padded with zeros,
// which the kernel leaves alone. A block the kernel declines runs on
// powScalar, as does everything otherwise.
func Pow(x []float32, y float64) {
	i := 0
	if yf, yi, ok := powKernelArgs(y); hasPowKernel && ok {
		var t [powChunk]float64
		n := len(x) &^ 3
		for i < n {
			m := min(n-i, powChunk)
			done := powVec(x[i:i+m], yf, yi, &t)
			i += done
			if done < m {
				powScalar(x[i:i+4], y)
				i += 4
			}
		}
		if i < len(x) {
			var tail [4]float32
			k := copy(tail[:], x[i:])
			if powVec(tail[:], yf, yi, &t) == len(tail) {
				copy(x[i:], tail[:k])
				i += k
			}
		}
	}
	powScalar(x[i:], y)
}

// powChunk is the length of the float64 scratch through which the pow
// kernel's two passes hand over: long enough that each loop's start-up is
// small against it, short enough for the stack.
const powChunk = 256

// powVec runs the pow kernel's two passes over x, len(x) <= powChunk, and
// returns how many leading elements are done: the whole blocks before the
// first one the kernel declines. t[:done] then holds the float64 results.
func powVec(x []float32, yf float64, yi int, t *[powChunk]float64) int {
	return powExpAVX(&x[0], &t[0], powLogAVX(&x[0], len(x), yf, &t[0]), yi)
}

// powScalar is the portable loop and the pow kernel's oracle.
func powScalar(x []float32, y float64) {
	for i, p := range x {
		if p > 0 {
			x[i] = float32(math.Pow(float64(p), y))
		}
	}
}

// powKernelArgs splits y as math.Pow does into yi + yf, with yf in
// (-0.5, 0.5], and reports whether the pow kernel computes x**y for
// float32 x: y must be positive and finite, neither 1 nor 0.5 (pow's
// short cuts) and give yi < 32, so that pow's exponent guard never fires.
func powKernelArgs(y float64) (yf float64, yi int, ok bool) {
	if !(y > 0 && y < 32) || y == 1 || y == 0.5 {
		return 0, 0, false
	}
	fi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		fi++
	}
	return yf, int(fi), fi < 32
}
