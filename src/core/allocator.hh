/**
 * @file
 * VM placement policies (paper Section 4.1).
 *
 * BaselineAllocator models the traditional rule-based allocator
 * (Protean-style packing, thermal/power-oblivious). TapasAllocator
 * implements the three TAPAS rules: a validator that filters aisles
 * and rows whose predicted peak airflow/power would exceed
 * provisioning (Eqs. 3-4), a temperature preference (IaaS to cool
 * servers, SaaS to warm servers), and an IaaS/SaaS balance
 * preference, with headroom-based tie-breaking.
 */

#ifndef TAPAS_CORE_ALLOCATOR_HH
#define TAPAS_CORE_ALLOCATOR_HH

#include <optional>
#include <vector>

#include "core/budget.hh"
#include "core/context.hh"

namespace tapas {

/** A VM awaiting placement. */
struct PlacementRequest
{
    VmId id;
    VmKind kind = VmKind::IaaS;
    EndpointId endpoint;
    CustomerId customer;
    /** Predicted peak load of the VM (templates; 1.0 = assume peak). */
    double predictedPeakLoad = 1.0;
};

/** Placement policy interface. */
class VmAllocator
{
  public:
    virtual ~VmAllocator() = default;

    /**
     * Choose a server for the VM, or nullopt when the cluster has no
     * acceptable server (caller queues the VM).
     */
    virtual std::optional<ServerId>
    place(const PlacementRequest &request,
          const ClusterView &view) = 0;

    virtual const char *name() const = 0;
};

/** Packing-first, thermal/power-oblivious placement. */
class BaselineAllocator : public VmAllocator
{
  public:
    std::optional<ServerId> place(const PlacementRequest &request,
                                  const ClusterView &view) override;

    const char *name() const override { return "baseline"; }
};

/** TAPAS rule-pipeline placement. */
class TapasAllocator : public VmAllocator
{
  public:
    explicit TapasAllocator(const TapasPolicyConfig &config)
        : cfg(config)
    {}

    std::optional<ServerId> place(const PlacementRequest &request,
                                  const ClusterView &view) override;

    const char *name() const override { return "tapas"; }

  private:
    TapasPolicyConfig cfg;

    /** Eq. 3/4 demand bases at the placed VMs' predicted peaks. */
    BudgetLedger ledger;
    /** Reusable placement scratch (place() runs per arriving VM and
     *  per waiting-queue retry; batched predictor passes write into
     *  these instead of allocating per call). */
    std::vector<double> airflowZeroScratch;
    std::vector<double> airflowReqScratch;
    std::vector<double> powerZeroScratch;
    std::vector<double> powerReqScratch;
    std::vector<double> inletScratch;
    std::vector<double> perGpuWScratch;
    std::vector<double> hottestScratch;
    std::vector<int> rowIaasScratch;
    std::vector<int> rowSaasScratch;
};

} // namespace tapas

#endif // TAPAS_CORE_ALLOCATOR_HH
