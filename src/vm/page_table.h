// Four-level x86-64 page table (PGD → PUD → PMD → PT), as walked by the
// paper's virtual-address-based page prefetcher (Fig. 2).
//
// Each level holds 512 entries indexed by 9 bits of the virtual address.
// A `Cursor` reproduces the prefetcher's traversal: starting right after
// the victim page it "iteratively increments the page table offset … and in
// cases where an insufficient number of candidate pages is gathered after
// walking through the entire page table, the policy reverts to traversing
// the next PMD entry in the PMD table to access an alternative page table".
#pragma once

#include "util/types.h"
#include "vm/pte.h"

#include <array>
#include <cstdint>
#include <memory>

namespace its::vm {

inline constexpr unsigned kEntriesPerLevel = 512;

constexpr unsigned pgd_index(its::VirtAddr a) { return (a >> 39) & 0x1ff; }
constexpr unsigned pud_index(its::VirtAddr a) { return (a >> 30) & 0x1ff; }
constexpr unsigned pmd_index(its::VirtAddr a) { return (a >> 21) & 0x1ff; }
constexpr unsigned pte_index(its::VirtAddr a) {
  return (a >> its::kPageShift) & 0x1ff;
}

class PageTable {
 public:
  PageTable();
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;
  PageTable(PageTable&&) = default;
  PageTable& operator=(PageTable&&) = default;
  ~PageTable();

  /// Full 4-level walk.  Returns nullptr if any intermediate level is
  /// absent (the VA was never populated).
  Pte* lookup(its::VirtAddr va) {
    if (!pgd_) return nullptr;
    Pud* pud = pgd_->t[pgd_index(va)].get();
    if (!pud) return nullptr;
    Pmd* pmd = pud->t[pud_index(va)].get();
    if (!pmd) return nullptr;
    Pt* pt = pmd->t[pmd_index(va)].get();
    if (!pt) return nullptr;
    return &pt->e[pte_index(va)];
  }
  const Pte* lookup(its::VirtAddr va) const {
    return const_cast<PageTable*>(this)->lookup(va);
  }

  /// Walk that allocates missing intermediate tables (page population).
  Pte& ensure(its::VirtAddr va);

  /// Number of levels that exist along the walk for `va` (1..4); used to
  /// charge page-walk cost.  4 means the PTE slot exists.
  unsigned levels_mapped(its::VirtAddr va) const;

  /// Number of allocated table nodes at all levels (memory accounting).
  std::uint64_t tables_allocated() const { return tables_; }

  /// Sequential PTE-slot cursor over ascending virtual pages.  Skips holes
  /// by stopping: `next()` returns nullptr once it reaches a VA whose leaf
  /// table does not exist (the prefetcher then gives up — nothing is mapped
  /// there).
  class Cursor {
   public:
    /// Advances to the next virtual page and returns its PTE slot, or
    /// nullptr if the walk left populated tables.  `vpn_out` receives the
    /// page the returned PTE describes.
    Pte* next(its::Vpn& vpn_out);

    /// PTE slots examined so far (cost accounting).
    std::uint64_t slots_examined() const { return examined_; }

   private:
    friend class PageTable;
    Cursor(PageTable& pt, its::Vpn start) : pt_(&pt), vpn_(start) {}
    PageTable* pt_;
    its::Vpn vpn_;
    std::uint64_t examined_ = 0;
  };

  /// Cursor whose first `next()` yields the PTE for `start`.
  Cursor cursor_at(its::Vpn start) { return Cursor(*this, start); }

 private:
  struct Pt {
    std::array<Pte, kEntriesPerLevel> e{};
  };
  struct Pmd {
    std::array<std::unique_ptr<Pt>, kEntriesPerLevel> t;
  };
  struct Pud {
    std::array<std::unique_ptr<Pmd>, kEntriesPerLevel> t;
  };
  struct Pgd {
    std::array<std::unique_ptr<Pud>, kEntriesPerLevel> t;
  };

  // Allocated by the first ensure(): a process that touches no memory
  // (a compute-only request) costs no 4 KiB root.  tables_ and
  // levels_mapped() count the root as present either way.
  std::unique_ptr<Pgd> pgd_;
  std::uint64_t tables_ = 1;  // the PGD itself
};

}  // namespace its::vm
