#include "vm/page_table.h"

#include "util/types.h"
#include "vm/pte.h"

namespace its::vm {

PageTable::PageTable() = default;
PageTable::~PageTable() = default;

Pte& PageTable::ensure(its::VirtAddr va) {
  if (!pgd_) pgd_ = std::make_unique<Pgd>();
  auto& pud = pgd_->t[pgd_index(va)];
  if (!pud) {
    pud = std::make_unique<Pud>();
    ++tables_;
  }
  auto& pmd = pud->t[pud_index(va)];
  if (!pmd) {
    pmd = std::make_unique<Pmd>();
    ++tables_;
  }
  auto& pt = pmd->t[pmd_index(va)];
  if (!pt) {
    pt = std::make_unique<Pt>();
    ++tables_;
  }
  return pt->e[pte_index(va)];
}

unsigned PageTable::levels_mapped(its::VirtAddr va) const {
  if (!pgd_) return 1;
  const Pud* pud = pgd_->t[pgd_index(va)].get();
  if (!pud) return 1;
  const Pmd* pmd = pud->t[pud_index(va)].get();
  if (!pmd) return 2;
  const Pt* pt = pmd->t[pmd_index(va)].get();
  if (!pt) return 3;
  return 4;
}

Pte* PageTable::Cursor::next(its::Vpn& vpn_out) {
  its::VirtAddr va = vpn_ << its::kPageShift;
  ++examined_;
  Pte* pte = pt_->lookup(va);
  if (pte == nullptr) return nullptr;  // left populated tables — give up
  vpn_out = vpn_;
  ++vpn_;
  return pte;
}

}  // namespace its::vm
