/**
 * @file
 * Bit-exact int8 reference executor for Network graphs. The MAICC
 * runtime (src/runtime) must reproduce these outputs exactly; the
 * arithmetic contract is:
 *
 *   acc       = sum(ifmap * weight) over R, S, C        (int32)
 *   acc      += residual << shift        (when addFrom is set)
 *   out       = sat8((relu ? max(acc,0) : acc) >> shift)
 *
 * Average pooling uses truncating integer division by the kernel
 * area; max pooling is exact.
 */

#ifndef MAICC_NN_REFERENCE_HH
#define MAICC_NN_REFERENCE_HH

#include <vector>

#include "nn/network.hh"
#include "nn/tensor.hh"

namespace maicc
{

/** Per-layer outputs of a reference run. */
struct ReferenceResult
{
    std::vector<Tensor3> outputs; ///< one per layer

    const Tensor3 &
    final() const
    {
        return outputs.back();
    }
};

/** Run @p net on @p input with @p weights. */
ReferenceResult referenceRun(const Network &net,
                             const std::vector<Weights4> &weights,
                             const Tensor3 &input);

/**
 * The repository's one int8 convolution kernel (Conv and Linear
 * layers): writes output rows [@p oh_begin, @p oh_end) of @p out,
 * which must already have the layer's output shape. Each row
 * depends only on the read-only inputs, so disjoint row ranges may
 * run concurrently, and integer sums make any split bitwise equal
 * to the whole-layer call. referenceLayer calls it for all rows;
 * MaiccSystem::run shards it by rows over its ThreadPool.
 */
void referenceConvRows(const LayerSpec &l, const Weights4 &w,
                       const Tensor3 &in, const Tensor3 *residual,
                       Tensor3 &out, int oh_begin, int oh_end);

/** Compute one layer given its (resolved) inputs. */
Tensor3 referenceLayer(const LayerSpec &l, const Weights4 &w,
                       const Tensor3 &input, const Tensor3 *residual);

} // namespace maicc

#endif // MAICC_NN_REFERENCE_HH
