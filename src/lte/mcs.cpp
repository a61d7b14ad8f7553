#include "lte/mcs.hpp"

#include <array>

#include "common/check.hpp"

namespace pran::lte {
namespace {

std::vector<McsEntry> make_mcs_table() {
  // Code rates follow the TS 36.213 I_MCS -> (Q_m, I_TBS) progression;
  // spectral efficiency = bits_per_symbol * code_rate.
  const struct {
    Modulation mod;
    double rate;
  } rows[29] = {
      {Modulation::kQpsk, 0.1171}, {Modulation::kQpsk, 0.1533},
      {Modulation::kQpsk, 0.1884}, {Modulation::kQpsk, 0.2451},
      {Modulation::kQpsk, 0.3008}, {Modulation::kQpsk, 0.3701},
      {Modulation::kQpsk, 0.4385}, {Modulation::kQpsk, 0.5137},
      {Modulation::kQpsk, 0.5879}, {Modulation::kQpsk, 0.6631},
      {Modulation::kQam16, 0.3320}, {Modulation::kQam16, 0.3691},
      {Modulation::kQam16, 0.4238}, {Modulation::kQam16, 0.4785},
      {Modulation::kQam16, 0.5400}, {Modulation::kQam16, 0.6016},
      {Modulation::kQam16, 0.6426}, {Modulation::kQam64, 0.4277},
      {Modulation::kQam64, 0.4551}, {Modulation::kQam64, 0.5049},
      {Modulation::kQam64, 0.5537}, {Modulation::kQam64, 0.6016},
      {Modulation::kQam64, 0.6504}, {Modulation::kQam64, 0.7021},
      {Modulation::kQam64, 0.7539}, {Modulation::kQam64, 0.8027},
      {Modulation::kQam64, 0.8525}, {Modulation::kQam64, 0.8887},
      {Modulation::kQam64, 0.9258}};
  std::vector<McsEntry> table;
  table.reserve(29);
  for (int i = 0; i < 29; ++i) {
    table.push_back(McsEntry{
        i, rows[i].mod, rows[i].rate,
        static_cast<double>(bits_per_symbol(rows[i].mod)) * rows[i].rate});
  }
  return table;
}

std::vector<CqiEntry> make_cqi_table() {
  // TS 36.213 Table 7.2.3-1 (efficiency in bits per resource element).
  const struct {
    Modulation mod;
    double rate;
    double eff;
  } rows[15] = {{Modulation::kQpsk, 0.0762, 0.1523},
                {Modulation::kQpsk, 0.1172, 0.2344},
                {Modulation::kQpsk, 0.1885, 0.3770},
                {Modulation::kQpsk, 0.3008, 0.6016},
                {Modulation::kQpsk, 0.4385, 0.8770},
                {Modulation::kQpsk, 0.5879, 1.1758},
                {Modulation::kQam16, 0.3691, 1.4766},
                {Modulation::kQam16, 0.4785, 1.9141},
                {Modulation::kQam16, 0.6016, 2.4063},
                {Modulation::kQam64, 0.4551, 2.7305},
                {Modulation::kQam64, 0.5537, 3.3223},
                {Modulation::kQam64, 0.6504, 3.9023},
                {Modulation::kQam64, 0.7539, 4.5234},
                {Modulation::kQam64, 0.8525, 5.1152},
                {Modulation::kQam64, 0.9258, 5.5547}};
  std::vector<CqiEntry> table;
  table.reserve(15);
  for (int i = 0; i < 15; ++i)
    table.push_back(CqiEntry{i + 1, rows[i].mod, rows[i].rate, rows[i].eff});
  return table;
}

}  // namespace

const std::vector<McsEntry>& mcs_table() {
  static const std::vector<McsEntry> table = make_mcs_table();
  return table;
}

const std::vector<CqiEntry>& cqi_table() {
  static const std::vector<CqiEntry> table = make_cqi_table();
  return table;
}

const McsEntry& mcs(int index) {
  PRAN_REQUIRE(index >= 0 && index <= 28, "MCS index outside 0..28");
  return mcs_table()[static_cast<std::size_t>(index)];
}

const CqiEntry& cqi(int index) {
  PRAN_REQUIRE(index >= 1 && index <= 15, "CQI index outside 1..15");
  return cqi_table()[static_cast<std::size_t>(index - 1)];
}

int cqi_from_efficiency(double bits_per_re) {
  int best = 0;
  for (const auto& entry : cqi_table())
    if (entry.spectral_eff <= bits_per_re) best = entry.index;
  return best;
}

int mcs_from_cqi(int cqi_index) {
  PRAN_REQUIRE(cqi_index >= 0 && cqi_index <= 15, "CQI index outside 0..15");
  static const std::array<int, 16> table = [] {
    std::array<int, 16> t{};  // CQI 0 maps to MCS 0
    for (int c = 1; c <= 15; ++c) {
      // Small tolerance: table rounding makes e.g. MCS 28 (5.5548) sit a
      // hair above CQI 15 (5.5547); they are the same operating point.
      const double target = cqi(c).spectral_eff + 1e-3;
      for (const auto& entry : mcs_table())
        if (entry.spectral_eff <= target)
          t[static_cast<std::size_t>(c)] = entry.index;
    }
    return t;
  }();
  return table[static_cast<std::size_t>(cqi_index)];
}

units::Bits transport_block_bits(int mcs_index, units::PrbCount n_prb) {
  PRAN_REQUIRE(n_prb >= units::PrbCount{0}, "PRB count must be non-negative");
  if (n_prb == units::PrbCount{0}) return units::Bits{0};
  const auto& entry = mcs(mcs_index);
  const double bits = entry.spectral_eff *
                      static_cast<double>(kUsableRePerPrb) *
                      static_cast<double>(n_prb.count());
  const auto whole = static_cast<std::int64_t>(bits);
  return units::Bits{whole - whole % 8};
}

int code_block_count(units::Bits tb_bits) {
  PRAN_REQUIRE(tb_bits >= units::Bits{0},
               "transport block size must be non-negative");
  if (tb_bits == units::Bits{0}) return 0;
  constexpr std::int64_t kMaxCodeBlockBits = 6144;
  return static_cast<int>((tb_bits.count() + kMaxCodeBlockBits - 1) /
                          kMaxCodeBlockBits);
}

}  // namespace pran::lte
