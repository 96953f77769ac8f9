// Tight grid elements of a routing problem: the edges and via cells on
// which the candidates' worst-case demand (the sum over objects of each
// object's largest use) exceeds capacity.
//
// Only these elements can ever turn a candidate infeasible: on any other
// element, whatever the objects pick, their demand fits. So they are the
// only capacity rows (3c) the ILP needs and the only coupling between
// objects of different groups, and the primal-dual solver re-checks only
// their users after a commit.
#pragma once

#include <span>
#include <vector>

#include "core/problem.hpp"

namespace streak {

/// One candidate's demand on a tight element.
struct TightUse {
    int object = 0;
    int candidate = 0;
    int amount = 0;
};

/// The tight elements of one kind (edges or via cells) and their users.
struct TightElements {
    /// Tight element ids, ascending.
    std::vector<int> ids;
    /// users[begin[k] .. begin[k + 1]) are the uses of ids[k], sorted by
    /// (object, candidate).
    std::vector<int> begin;
    std::vector<TightUse> users;
    /// slot[id] = k when id == ids[k], -1 for a non-tight element; empty
    /// when no element of this kind is tight.
    std::vector<int> slot;

    [[nodiscard]] int size() const { return static_cast<int>(ids.size()); }
    [[nodiscard]] std::span<const TightUse> usersOf(int k) const {
        return {users.data() + begin[static_cast<size_t>(k)],
                users.data() + begin[static_cast<size_t>(k) + 1]};
    }
    /// Slot of element `id`, or -1 when it is not tight.
    [[nodiscard]] int slotOf(int id) const {
        return slot.empty() ? -1 : slot[static_cast<size_t>(id)];
    }
};

struct TightIndex {
    TightElements edges;
    /// Empty unless the grid's via model is enabled; cells with unlimited
    /// via capacity are never tight.
    TightElements viaCells;
};

/// Index the tight edges and via cells of a problem with their users, in
/// two flat passes over the candidates' demand lists.
[[nodiscard]] TightIndex buildTightIndex(const RoutingProblem& prob);

}  // namespace streak
