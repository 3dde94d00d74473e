// LU factorization with partial pivoting, for linear solves.
#ifndef DTUCKER_LINALG_LU_H_
#define DTUCKER_LINALG_LU_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace dtucker {

// Solves A X = B with partial-pivoted Gaussian elimination.
// Returns NumericalError on (numerically) singular A.
Result<Matrix> SolveLu(const Matrix& a, const Matrix& b);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_LU_H_
