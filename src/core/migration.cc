#include "core/migration.hh"

#include "common/logging.hh"

namespace tapas {

std::optional<MigrationPlan>
MigrationPlanner::planOne(ClusterView &view)
{
    tapas_assert(view.profiles, "migration planning needs profiles");
    view.assertFresh();
    const DatacenterLayout &layout = *view.layout;

    // Rank rows by predicted peak power utilization.
    ledger.fillPeaks(view);
    RowId donor;
    double worst_util = 0.0;
    for (const Row &row : layout.rows()) {
        const double demand = ledger.rowPowerW(row.id);
        const double budget = ledger.rowProvisionW(row.id);
        if (budget <= 0.0)
            continue;
        const double util = demand / budget;
        if (util > worst_util) {
            worst_util = util;
            donor = row.id;
        }
    }
    if (!donor.valid())
        return std::nullopt;
    const double donor_before = ledger.rowPowerW(donor);

    // Candidate: the SaaS VM with the highest predicted peak in the
    // donor row (moving it relieves the most pressure).
    const PlacedVmView *candidate_ref = nullptr;
    for (const PlacedVmView &vm : view.vms) {
        if (vm.kind != VmKind::SaaS)
            continue;
        if (!(layout.server(vm.server).row == donor))
            continue;
        if (!candidate_ref ||
            vm.predictedPeakLoad >
                candidate_ref->predictedPeakLoad) {
            candidate_ref = &vm;
        }
    }
    if (!candidate_ref)
        return std::nullopt;

    // Overlay: lift the candidate out of the view in place (the
    // erase position is remembered so a rejected what-if restores
    // the entry exactly — same index, same field values).
    const PlacedVmView candidate = *candidate_ref;
    const std::size_t at = static_cast<std::size_t>(
        candidate_ref - view.vms.data());
    view.occupied[candidate.server.index] = false;
    view.vms.erase(view.vms.begin() +
                   static_cast<std::ptrdiff_t>(at));

    auto undo = [&]() {
        view.vms.insert(view.vms.begin() +
                            static_cast<std::ptrdiff_t>(at),
                        candidate);
        view.occupied[candidate.server.index] = true;
    };

    PlacementRequest request;
    request.id = candidate.id;
    request.kind = VmKind::SaaS;
    request.endpoint = candidate.endpoint;
    request.predictedPeakLoad = candidate.predictedPeakLoad;

    const auto target = alloc.place(request, view);
    // A move within the same row relieves nothing.
    if (!target.has_value() ||
        layout.server(*target).row == donor) {
        undo();
        return std::nullopt;
    }

    // Donor-row relief, evaluated on the lifted-out overlay state.
    ledger.fillPeaks(view);
    const double donor_after = ledger.rowPowerW(donor);
    if (donor_after >= donor_before) {
        undo();
        return std::nullopt;
    }

    // Accept: apply the move to the view (the entry keeps its index,
    // so ascending-id order is preserved).
    PlacedVmView moved = candidate;
    moved.server = *target;
    view.vms.insert(view.vms.begin() +
                        static_cast<std::ptrdiff_t>(at),
                    moved);
    view.occupied[target->index] = true;

    MigrationPlan plan;
    plan.vm = candidate.id;
    plan.from = candidate.server;
    plan.to = *target;
    plan.donorRowPeakW = donor_before;
    plan.donorRowAfterW = donor_after;
    return plan;
}

std::vector<MigrationPlan>
MigrationPlanner::plan(ClusterView &view, int max_moves)
{
    std::vector<MigrationPlan> out;
    for (int i = 0; i < max_moves; ++i) {
        const auto move = planOne(view);
        if (!move.has_value())
            break;
        out.push_back(*move);
    }
    return out;
}

} // namespace tapas
