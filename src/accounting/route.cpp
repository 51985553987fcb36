#include "accounting/route.hpp"

#include <algorithm>
#include <stdexcept>

#include "geo/trie.hpp"

namespace manytiers::accounting {

std::string TierTag::to_string() const {
  return std::to_string(asn) + ":" + std::to_string(tier);
}

Rib::Rib() : index_(std::make_unique<geo::PrefixTrie<const Route*>>()) {}
Rib::Rib(Rib&&) noexcept = default;
Rib& Rib::operator=(Rib&&) noexcept = default;
Rib::~Rib() = default;

void Rib::add(Route route) {
  // Range-check the length before it becomes a shift count.
  if (route.prefix.length < 0 || route.prefix.length > 32) {
    throw std::invalid_argument("Rib::add: malformed prefix");
  }
  const auto mask =
      route.prefix.length == 0
          ? geo::IpV4{0}
          : geo::IpV4(~geo::IpV4(0) << (32 - route.prefix.length));
  if ((route.prefix.address & ~mask) != 0) {
    throw std::invalid_argument("Rib::add: malformed prefix");
  }
  const auto key = std::pair{route.prefix.address, route.prefix.length};
  auto [it, inserted] = by_prefix_.insert_or_assign(key, std::move(route));
  if (inserted) {
    // Map nodes are stable, so the trie can hold a pointer to the value.
    index_->insert(it->second.prefix, &it->second);
  }
}

bool Rib::withdraw(const geo::Prefix& prefix) {
  const auto key = std::pair{prefix.address, prefix.length};
  const auto it = by_prefix_.find(key);
  if (it == by_prefix_.end()) return false;
  index_->erase(prefix);
  by_prefix_.erase(it);
  return true;
}

void Rib::clear() {
  by_prefix_.clear();
  index_ = std::make_unique<geo::PrefixTrie<const Route*>>();
}

std::size_t Rib::size() const { return by_prefix_.size(); }

std::vector<Route> Rib::routes() const {
  std::vector<Route> out;
  out.reserve(by_prefix_.size());
  for (const auto& [key, route] : by_prefix_) out.push_back(route);
  return out;
}

const Route* Rib::lookup(geo::IpV4 destination) const {
  const Route* const* slot = index_->lookup_ptr(destination);
  return slot == nullptr ? nullptr : *slot;
}

std::optional<std::uint16_t> Rib::tier_of(geo::IpV4 destination) const {
  const Route* r = lookup(destination);
  if (r == nullptr) return std::nullopt;
  return r->tag.tier;
}

std::vector<std::uint16_t> Rib::tiers() const {
  std::vector<std::uint16_t> out;
  for (const auto& [key, route] : by_prefix_) {
    if (std::find(out.begin(), out.end(), route.tag.tier) == out.end()) {
      out.push_back(route.tag.tier);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace manytiers::accounting
