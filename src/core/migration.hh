/**
 * @file
 * SaaS VM migration planning (paper Section 4.1, "Migration").
 *
 * Beyond initial placement, TAPAS can recompute better placements to
 * correct mispredictions or drift: for SaaS VMs the platform creates
 * a replacement instance elsewhere, shifts traffic, and decommissions
 * the old VM. IaaS VMs are never moved (GPU live migration is
 * unsupported, as the paper notes).
 */

#ifndef TAPAS_CORE_MIGRATION_HH
#define TAPAS_CORE_MIGRATION_HH

#include <optional>
#include <vector>

#include "core/allocator.hh"
#include "core/budget.hh"
#include "core/context.hh"

namespace tapas {

/** One proposed SaaS move. */
struct MigrationPlan
{
    VmId vm;
    ServerId from;
    ServerId to;
    /** Predicted peak power of the donor row before the move, W. */
    double donorRowPeakW = 0.0;
    /** Predicted donor-row peak after the move, W. */
    double donorRowAfterW = 0.0;
};

/** Plans pressure-relieving SaaS migrations. */
class MigrationPlanner
{
  public:
    explicit MigrationPlanner(const TapasPolicyConfig &config)
        : cfg(config), alloc(config)
    {}

    /**
     * Propose up to @p max_moves migrations, each taking a SaaS VM
     * out of the row with the least predicted power headroom and
     * re-placing it through the TAPAS allocator. Returns an empty
     * vector when no move improves the donor row.
     *
     * What-if exploration works by overlay/undo on @p view itself
     * (no O(fleet) view copies): rejected candidates are restored
     * exactly, and accepted moves stay applied so the caller's view
     * matches the plan it is handed back.
     */
    std::vector<MigrationPlan>
    plan(ClusterView &view, int max_moves);

  private:
    TapasPolicyConfig cfg;
    /** Re-placement allocator; member so its batched-prediction
     *  scratch persists across planning rounds. */
    TapasAllocator alloc;
    /** Predicted peak row power for the donor ranking. */
    BudgetLedger ledger;

    std::optional<MigrationPlan> planOne(ClusterView &view);
};

} // namespace tapas

#endif // TAPAS_CORE_MIGRATION_HH
