#include "rlv/lang/alphabet.hpp"

namespace rlv {

std::shared_ptr<Alphabet> Alphabet::make(
    std::initializer_list<std::string_view> names) {
  auto sigma = std::make_shared<Alphabet>();
  for (const auto name : names) sigma->intern(name);
  return sigma;
}

std::shared_ptr<Alphabet> Alphabet::make(const std::vector<std::string>& names) {
  auto sigma = std::make_shared<Alphabet>();
  for (const auto& name : names) sigma->intern(name);
  return sigma;
}

Symbol Alphabet::intern(std::string_view name) {
  if (const auto s = find(name)) return *s;
  const Symbol s = static_cast<Symbol>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), s);
  return s;
}

Symbol Alphabet::id(std::string_view name) const {
  const auto s = find(name);
  if (!s) {
    throw std::invalid_argument("symbol not interned: " + std::string(name));
  }
  return *s;
}

std::optional<Symbol> Alphabet::find(std::string_view name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

std::string Alphabet::format(const Word& w) const {
  std::string out;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i > 0) out += '.';
    out += name(w[i]);
  }
  if (out.empty()) out = "\xce\xb5";  // ε for the empty word
  return out;
}

}  // namespace rlv
