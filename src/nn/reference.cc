#include "nn/reference.hh"

#include <algorithm>

#include "common/logging.hh"

namespace maicc
{

namespace
{

Tensor3
referencePool(const LayerSpec &l, const Tensor3 &in, bool avg)
{
    Tensor3 out(l.outH(), l.outW(), l.inC);
    int area = l.R * l.S;
    for (int oh = 0; oh < out.H; ++oh) {
        for (int ow = 0; ow < out.W; ++ow) {
            for (int c = 0; c < l.inC; ++c) {
                int32_t acc = avg ? 0 : INT32_MIN;
                for (int r = 0; r < l.R; ++r) {
                    for (int s = 0; s < l.S; ++s) {
                        int ih = oh * l.stride + r;
                        int iw = ow * l.stride + s;
                        int32_t v = in.at(ih, iw, c);
                        if (avg)
                            acc += v;
                        else
                            acc = std::max(acc, v);
                    }
                }
                if (avg)
                    acc /= area; // truncating, as the cores do
                out.at(oh, ow, c) = static_cast<int8_t>(acc);
            }
        }
    }
    return out;
}

/**
 * Output row @p oh of filters [@p m0, @p m0 + MB) — the body of
 * referenceConvRows, whose asserts cover the shapes. Raw HWC/MRSC
 * pointers make each filter row's valid taps one contiguous dot
 * product on both sides, and each loaded input byte feeds MB
 * accumulators. The int16 operands let the compiler vectorize with
 * 16-bit multiplies (an int8 x int8 product always fits).
 */
template <int MB>
void
convRowFilters(const LayerSpec &l, const Weights4 &w,
               const Tensor3 &in, const Tensor3 *residual,
               Tensor3 &out, int oh, int m0)
{
    const int C = l.inC;
    const size_t in_row = size_t(in.W) * C;
    const size_t filter = size_t(l.R) * l.S * C;
    const int8_t *w_m0 = w.data.data() + size_t(m0) * filter;
    int ih0 = oh * l.stride - l.pad;
    int r_lo = std::max(0, -ih0);
    int r_hi = std::min(l.R, in.H - ih0);
    for (int ow = 0; ow < out.W; ++ow) {
        int iw0 = ow * l.stride - l.pad;
        int s_lo = std::max(0, -iw0);
        int n = std::max(0, std::min(l.S, in.W - iw0) - s_lo) * C;
        int32_t acc[MB] = {};
        for (int r = r_lo; r < r_hi; ++r) {
            const int8_t *a = in.data.data()
                + size_t(ih0 + r) * in_row + size_t(iw0 + s_lo) * C;
            const int8_t *b = w_m0 + (size_t(r) * l.S + s_lo) * C;
            for (int k = 0; k < n; ++k) {
                int16_t x = a[k];
                for (int j = 0; j < MB; ++j)
                    acc[j] += x * int16_t(b[j * filter + k]);
            }
        }
        for (int j = 0; j < MB; ++j) {
            size_t o = (size_t(oh) * out.W + ow) * out.C + m0 + j;
            int32_t v = acc[j];
            if (residual)
                v += int32_t(residual->data[o]) << l.shift;
            out.data[o] = requantize(v, l.shift, l.relu);
        }
    }
}

} // namespace

void
referenceConvRows(const LayerSpec &l, const Weights4 &w,
                  const Tensor3 &in, const Tensor3 *residual,
                  Tensor3 &out, int oh_begin, int oh_end)
{
    maicc_assert(in.C == l.inC && in.H == l.inH && in.W == l.inW);
    maicc_assert(w.M == l.outC && w.R == l.R && w.S == l.S
                 && w.C == l.inC);
    maicc_assert(out.H == l.outH() && out.W == l.outW()
                 && out.C == l.outC);
    maicc_assert(0 <= oh_begin && oh_begin <= oh_end
                 && oh_end <= out.H);
    if (residual) {
        maicc_assert(residual->H == out.H && residual->W == out.W
                     && residual->C == out.C);
    }
    for (int oh = oh_begin; oh < oh_end; ++oh) {
        int m = 0;
        for (; m + 4 <= l.outC; m += 4)
            convRowFilters<4>(l, w, in, residual, out, oh, m);
        for (; m < l.outC; ++m)
            convRowFilters<1>(l, w, in, residual, out, oh, m);
    }
}

Tensor3
referenceLayer(const LayerSpec &l, const Weights4 &w,
               const Tensor3 &input, const Tensor3 *residual)
{
    switch (l.kind) {
      case LayerKind::Conv:
      case LayerKind::Linear:
      {
        Tensor3 out(l.outH(), l.outW(), l.outC);
        referenceConvRows(l, w, input, residual, out, 0, out.H);
        return out;
      }
      case LayerKind::AvgPool:
        return referencePool(l, input, true);
      case LayerKind::MaxPool:
        return referencePool(l, input, false);
    }
    maicc_panic("unreachable layer kind");
}

ReferenceResult
referenceRun(const Network &net,
             const std::vector<Weights4> &weights,
             const Tensor3 &input)
{
    maicc_assert(weights.size() == net.size());
    ReferenceResult res;
    res.outputs.reserve(net.size());
    for (size_t i = 0; i < net.size(); ++i) {
        const LayerSpec &l = net.layer(i);
        const Tensor3 &in = l.inputFrom < 0
            ? input
            : res.outputs[l.inputFrom];
        const Tensor3 *residual = nullptr;
        if (l.addFrom == -1)
            residual = &input;
        else if (l.addFrom >= 0)
            residual = &res.outputs[l.addFrom];
        res.outputs.push_back(
            referenceLayer(l, weights[i], in, residual));
    }
    return res;
}

} // namespace maicc
