#pragma once

/// \file mcs.hpp
/// LTE modulation-and-coding-scheme and CQI tables, plus transport-block
/// sizing. Tables follow the shape of 3GPP TS 36.213 (Rel-8 up to 64-QAM):
/// 15 CQI levels and 29 MCS indices. Transport-block size is computed from
/// usable resource elements rather than the full 36.213 TBS lookup table,
/// which preserves the scaling behaviour the processing-cost model needs.

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace pran::lte {

enum class Modulation : std::uint8_t { kQpsk = 2, kQam16 = 4, kQam64 = 6 };

/// Bits carried per modulation symbol.
constexpr int bits_per_symbol(Modulation m) noexcept {
  return static_cast<int>(m);
}

/// One row of the MCS table.
struct McsEntry {
  int index;            ///< MCS index 0..28.
  Modulation mod;       ///< Constellation.
  double code_rate;     ///< Effective channel-coding rate in (0, 1).
  double spectral_eff;  ///< Information bits per resource element.
};

/// One row of the CQI table (TS 36.213 Table 7.2.3-1 shape).
struct CqiEntry {
  int index;            ///< CQI 1..15 (0 = out of range).
  Modulation mod;
  double code_rate;
  double spectral_eff;  ///< Bits per resource element.
};

/// The 29-entry MCS table (indices 0..28).
const std::vector<McsEntry>& mcs_table();

/// The 15-entry CQI table (indices 1..15).
const std::vector<CqiEntry>& cqi_table();

/// Entry lookup; requires 0 <= index <= 28.
const McsEntry& mcs(int index);

/// Entry lookup; requires 1 <= index <= 15.
const CqiEntry& cqi(int index);

/// Highest CQI whose spectral efficiency does not exceed `bits_per_re`;
/// returns 0 when even CQI 1 is unsupportable.
int cqi_from_efficiency(double bits_per_re);

/// Maps CQI (0..15) to the highest MCS with spectral efficiency not above
/// the CQI's. CQI 0 maps to MCS 0 (most robust). A lookup in a 16-entry
/// table built once from the two tables.
int mcs_from_cqi(int cqi_index);

/// Usable resource elements per PRB pair per subframe, after control /
/// reference-signal overhead (168 raw, ~140 usable).
inline constexpr int kUsableRePerPrb = 140;

/// Transport-block size for `n_prb` PRBs at MCS `mcs_index`.
/// Approximates 36.213: floor(spectral_eff * usable REs), floored to a
/// multiple of 8 bits (byte-aligned MAC PDU).
units::Bits transport_block_bits(int mcs_index, units::PrbCount n_prb);

/// Number of code blocks a transport block of `tb_bits` is segmented into
/// (turbo-coder block limit 6144 bits, TS 36.212).
int code_block_count(units::Bits tb_bits);

}  // namespace pran::lte
