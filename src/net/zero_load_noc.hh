/**
 * @file
 * Zero-load network model: the Mesh's analytic latency math
 * (hops * (router + link) + serialization), exactly the
 * 3-cycle-router / 1-cycle-link mesh of the paper's Table 2. This is
 * the default model. It keeps NocModel's zero waits and no-op link
 * hooks, so every latency is the Mesh's integer arithmetic plus 0.0 —
 * bit-identical to the pre-NocModel simulator.
 */

#ifndef CDCS_NET_ZERO_LOAD_NOC_HH
#define CDCS_NET_ZERO_LOAD_NOC_HH

#include "net/noc_model.hh"

namespace cdcs
{

/** The paper's zero-load mesh latency model. */
class ZeroLoadNoc final : public NocModel
{
  public:
    explicit ZeroLoadNoc(const Mesh &mesh) : NocModel(mesh) {}

    const char *name() const override { return "zero-load"; }
};

} // namespace cdcs

#endif // CDCS_NET_ZERO_LOAD_NOC_HH
