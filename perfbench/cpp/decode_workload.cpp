// decode: batched turbo decoding of transport blocks, the only workload
// that runs the coding layer (the simulator charges decode through its
// cost model).
//
// Set-up builds a pool of transport blocks, four per combination of a
// codeblock size K in {512, 1024, 2048, 4096}, 1, 4, 12 or 24 codeblocks,
// and an Es/N0 in {-1.0, -0.5, 0.0} dB (above the rate-1/3 waterfall,
// where CRC early stopping ends nearly every codeblock after one
// iteration). The mix is the same for every seed; the bits and the
// noise come from the seed. Every codeblock
// carries K-24 random bits plus a CRC-24A, is turbo encoded, and goes
// through BPSK over AWGN. The timed loop decodes the pool's blocks in
// order, one TurboDecoder::decode_batch call per transport block with a
// per-codeblock CRC early stop, until the requested seconds pass. A
// block's time is the median of its decode_batch calls, each scaled to
// nominal host speed (speed.hpp; report.hpp, ItemTimes); the throughput
// is the pool's bits per second of the sum of these times. Every decoded
// codeblock is compared with the bits that were sent, and a sample of
// blocks is decoded again one codeblock at a time with
// TurboDecoder::decode, which must give bit-identical results.

#include <span>
#include <stdexcept>

#include "coding/awgn.hpp"
#include "coding/crc.hpp"
#include "coding/turbo.hpp"
#include "common/rng.hpp"
#include "speed.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pran;
using coding::Bits;
using coding::Llrs;

namespace {

constexpr std::size_t kBlockSizes[] = {512, 1024, 2048, 4096};
constexpr std::int64_t kCodeblocks[] = {1, 4, 12, 24};
/// At {-2.0, -1.5, -1.0} dB about one codeblock in 40,000 was still wrong
/// after kMaxIterations (3 of 60 seeds' pools had one), which a run counts
/// as a failure. At these points none of 197,000 (100 seeds) was.
constexpr double kEsN0Db[] = {-1.0, -0.5, 0.0};
/// Transport blocks per combination, each with its own bits and noise.
/// With one block per combination, the pool's p99 (then its slowest
/// block) moved by 0.1 of its median from seed to seed.
constexpr std::size_t kCopies = 4;
constexpr int kMaxIterations = 8;
/// Every kCrossCheckStride-th block of the first pass is decoded again
/// block by block.
constexpr std::size_t kCrossCheckStride = 8;

struct TransportBlock {
  std::size_t k = 0;
  std::vector<Bits> sent;  ///< K bits per codeblock, CRC included.
  std::vector<Llrs> llrs;
};

struct Pool {
  std::vector<TransportBlock> blocks;
  std::uint64_t info_bits = 0;
  std::uint64_t codeblocks = 0;
};

Pool make_pool(std::uint64_t seed, Tracer* tracer) {
  const std::uint32_t enc = tracer ? tracer->intern("coding.encode") : 0;
  const std::uint32_t awgn = tracer ? tracer->intern("coding.awgn") : 0;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  Pool pool;
  const std::size_t combos =
      std::size(kBlockSizes) * std::size(kCodeblocks) * std::size(kEsN0Db);
  for (std::size_t block = 0; block < kCopies * combos; ++block) {
    const std::size_t combo = block % combos;
    TransportBlock tb;
    tb.k = kBlockSizes[combo % std::size(kBlockSizes)];
    const std::int64_t n =
        kCodeblocks[combo / std::size(kBlockSizes) % std::size(kCodeblocks)];
    const double esn0 = kEsN0Db[combo / std::size(kBlockSizes) /
                                std::size(kCodeblocks)];
    for (std::int64_t c = 0; c < n; ++c) {
      Bits payload(tb.k - coding::kCrcBits);
      for (auto& bit : payload) bit = rng.bernoulli(0.5) ? 1 : 0;
      Bits info = coding::attach_crc(payload);
      Bits coded;
      {
        Tracer::Scope sp(tracer, enc, static_cast<std::int64_t>(block));
        coded = coding::turbo_encode(info);
      }
      {
        Tracer::Scope sp(tracer, awgn, static_cast<std::int64_t>(block));
        tb.llrs.push_back(coding::transmit_bpsk(coded, units::Db{esn0}, rng));
      }
      tb.sent.push_back(std::move(info));
      pool.info_bits += tb.k;
      ++pool.codeblocks;
    }
    pool.blocks.push_back(std::move(tb));
  }
  return pool;
}

}  // namespace

void run_decode(const Options& options, Report& report) {
  Tracer tracer;
  Tracer* tr = options.trace ? &tracer : nullptr;
  HostSpeed speed;
  Pool pool;
  EndToEnd e;
  {
    std::vector<double> setup;
    for (int i = 0; i < 3; ++i) {
      pool = Pool{};  // one pool alive at a time, as in the timed loop
      speed.resample();
      const double t0 = cpu_seconds();
      Pool fresh = make_pool(options.seed, i == 0 ? tr : nullptr);
      setup.push_back(speed.scale(cpu_seconds() - t0));
      pool = std::move(fresh);
    }
    e.setup_s = median(setup);
    e.setup_samples = setup.size();
  }
  const std::uint32_t batch_name = tracer.intern("coding.decode_batch");
  const std::uint32_t crc_name = tracer.intern("coding.crc");

  coding::TurboDecoder decoder;
  std::vector<coding::TurboBatchItem> items;
  // Batched answers kept for the block-by-block cross-check.
  std::vector<std::vector<coding::TurboBatchItem>> kept(pool.blocks.size());
  ItemTimes times(pool.blocks.size());
  std::uint64_t decoded_bits = 0, good_bits = 0, iterations = 0;
  std::uint64_t codeblocks = 0, lane_refills = 0, idle = 0, slots = 0;
  double pass_bits = 0.0;  ///< Bits in one pass over the pool.
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    const std::size_t b = i % pool.blocks.size();
    const TransportBlock& tb = pool.blocks[b];
    items.assign(tb.llrs.size(), {});
    for (std::size_t c = 0; c < tb.llrs.size(); ++c)
      items[c].llrs = &tb.llrs[c];
    const auto id = static_cast<std::int64_t>(i);
    const auto crc_stop = [&](std::size_t, const Bits& hard) {
      if (!tr) return coding::check_crc(hard.data(), tb.k);
      Tracer::Scope sp(tr, crc_name, id);
      return coding::check_crc(hard.data(), tb.k);
    };
    coding::TurboBatchStats stats;
    {
      Tracer::Scope sp(tr, batch_name, id);
      const double t0 = cpu_seconds();
      stats = decoder.decode_batch(std::span<coding::TurboBatchItem>(items),
                                   tb.k, kMaxIterations, crc_stop);
      times.add(b, speed.scale(cpu_seconds() - t0));
    }
    speed.tick();
    lane_refills += stats.lane_refills;
    idle += stats.idle_lane_iterations;
    slots += stats.lane_width * stats.map_pass_calls / 2;
    for (std::size_t c = 0; c < items.size(); ++c) {
      const bool ok = items[c].info == tb.sent[c];
      report.attempt(ok, "codeblock decoded wrong (block " +
                             std::to_string(b) + ", K=" +
                             std::to_string(tb.k) + ")");
      decoded_bits += tb.k;
      if (i < pool.blocks.size()) pass_bits += static_cast<double>(tb.k);
      if (ok) good_bits += tb.k;
      iterations += static_cast<std::uint64_t>(items[c].iterations);
      ++codeblocks;
    }
    if (i < pool.blocks.size() && b % kCrossCheckStride == 0) kept[b] = items;
    ++i;
  } while (seconds_since(start) < options.seconds || i < pool.blocks.size());

  // Batched results must equal block-by-block decode() bit for bit.
  for (std::size_t b = 0; b < kept.size(); ++b) {
    const TransportBlock& tb = pool.blocks[b];
    for (std::size_t c = 0; c < kept[b].size(); ++c) {
      const coding::TurboResult& single = decoder.decode(
          tb.llrs[c], tb.k, kMaxIterations, [&](const Bits& hard) {
            return coding::check_crc(hard.data(), tb.k);
          });
      report.check(single.info == kept[b][c].info &&
                       single.iterations == kept[b][c].iterations,
                   "decode_batch differs from decode on block " +
                       std::to_string(b) + " codeblock " + std::to_string(c));
    }
  }

  const std::vector<double> tb_us = times.micros();
  const double mbps = pass_bits / times.sum() / 1e6;
  report.detail("pool_codeblocks", static_cast<double>(pool.codeblocks),
                "count");
  report.detail("decode_batch_calls", static_cast<double>(i), "count");
  report.detail("decode_mbps", mbps, "Mbit/s", tb_us.size());
  report.detail("decode_tb_p50_us", percentile(tb_us, 0.5), "us",
                tb_us.size());
  report.detail("decode_tb_p99_us", percentile(tb_us, 0.99), "us",
                tb_us.size());
  if (options.trace) {
    const double info = static_cast<double>(pool.info_bits);
    const double coded = static_cast<double>(pool.codeblocks) * 12.0 + 3.0 * info;
    const Tracer::LayerTime enc = tracer.layer("coding.encode");
    const Tracer::LayerTime awgn = tracer.layer("coding.awgn");
    const Tracer::LayerTime crc = tracer.layer("coding.crc");
    report_layers(
        report,
        {{"coding.turbo_iters_mean",
          static_cast<double>(iterations) /
              static_cast<double>(decoded_bits ? report.attempted() : 1)},
         {"coding.lane_occupancy",
          slots ? 1.0 - static_cast<double>(idle) / static_cast<double>(slots)
                : 0.0},
         {"coding.lane_refills",
          static_cast<double>(lane_refills) / static_cast<double>(i)},
         {"coding.crc_ns",
          crc.calls ? crc.self_ns / static_cast<double>(crc.calls) : 0.0},
         {"coding.encode_mbps", info / (enc.total_ns / 1e9) / 1e6},
         {"coding.awgn_mbps", coded / (awgn.total_ns / 1e9) / 1e6}},
        options.seed);
    tracer.write(options.out_dir + "/decode-trace.json");
    return;
  }
  e.throughput = mbps * 1e6;
  e.latency_p50_us = percentile(tb_us, 0.5);
  e.latency_tail_us = percentile(tb_us, 0.99);
  e.latency_samples = tb_us.size();
  e.peak_rss_mb = peak_rss_mb();
  e.goodput = static_cast<double>(good_bits) / static_cast<double>(decoded_bits);
  report.detail("setup_s", e.setup_s, "s", e.setup_samples);
  report.detail("host_slowdown", speed.slowdown(), "ratio");
  report_end_to_end(report, e);
}

std::vector<LayerValue> probe_coding_layers(std::uint64_t seed) {
  constexpr int kBlocks = 200;
  constexpr std::size_t kK = 4096;
  Rng rng(seed);
  Bits payload(kK - coding::kCrcBits);
  for (auto& bit : payload) bit = rng.bernoulli(0.5) ? 1 : 0;
  const Bits block = coding::attach_crc(payload);
  int passed = 0;
  const double t0 = cpu_seconds();
  for (int i = 0; i < kBlocks; ++i)
    passed += coding::check_crc(block.data(), block.size()) ? 1 : 0;
  const double ns = (cpu_seconds() - t0) * 1e9 / kBlocks;
  if (passed != kBlocks) throw std::logic_error("CRC probe: check failed");
  return {{"coding.crc_ns", ns}};
}

}  // namespace perfbench
