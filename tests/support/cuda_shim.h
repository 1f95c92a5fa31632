// What the CUDA front end provides to the kernels `to_cuda` prints, declared
// for a host C++ compiler so that `g++ -fsyntax-only -x c++` can check their
// syntax (tests/cuda_syntax.rs). Nothing here is ever linked or run.
#include <cmath>
#include <cstdint>

#define __global__
#define __shared__
#define __restrict__ __restrict

struct shim_dim3 {
  unsigned int x, y, z;
};
extern shim_dim3 threadIdx, blockIdx, blockDim, gridDim;

void __syncthreads();
float rsqrtf(float);

// CUDA overloads `min`/`max` per argument type. These accept any pair of
// operand types, which is more lenient than nvcc's overload resolution.
template <typename A, typename B> auto min(A a, B b) -> decltype(a < b ? a : b);
template <typename A, typename B> auto max(A a, B b) -> decltype(a < b ? a : b);
