package matrix

import "math"

// OrthonormalizeColumns orthonormalizes cols in place with modified
// Gram–Schmidt (two passes against the kept columns), dropping columns whose
// residual norm falls below tol·(initial norm). It works directly on
// caller-owned column slices and allocates nothing: retained columns are
// compacted to the front of cols (their buffers are overwritten), and the
// returned rank r says how many of cols[0:r] are valid afterwards. It is the
// rank-revealing kernel used for deflation inside the block Lanczos process.
func OrthonormalizeColumns(cols [][]float64, tol float64) int {
	kept := 0
	for j := 0; j < len(cols); j++ {
		col := cols[j]
		norm0 := Norm2(col)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < kept; i++ {
				c := Dot(cols[i], col)
				Axpy(-c, cols[i], col)
			}
		}
		norm1 := Norm2(col)
		if norm0 == 0 || norm1 <= tol*math.Max(norm0, 1e-300) {
			continue // linearly dependent column: deflate
		}
		ScaleVec(1/norm1, col)
		if kept != j {
			copy(cols[kept], col)
		}
		kept++
	}
	return kept
}
