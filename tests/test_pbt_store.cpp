// .rtst store properties: write→read→verify round-trips bit-exactly under
// arbitrary chunk geometries, and corruption anywhere in the file — header
// bit-flips, truncation, chunk-payload damage — is detected, never
// crashing and never silently returning wrong traces.
//
// The header-corruption cases double as the library-level half of the
// `rftc-trace verify` hardening: the CLI's clean nonzero exit on a mangled
// header depends on TraceStore's constructor throwing (not aborting) for
// every header byte the CRC covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "pbt/generators.hpp"
#include "pbt/pbt.hpp"
#include "trace/trace_store.hpp"
#include "temp_dir.hpp"

namespace rftc {
namespace {

using pbt::Config;
using pbt::Rng;
using pbt::gen::ChunkGeometry;

constexpr std::uint64_t kHeaderBytes = 64;
/// Bytes of the header covered by magic/fields/CRC — a flip anywhere in
/// [0, 52) must be rejected (bytes 52..63 are uncovered padding).
constexpr std::uint64_t kCoveredHeaderBytes = 52;
constexpr std::uint64_t kChunkHeaderBytes = 16;

struct StoreCase {
  ChunkGeometry geom;
  std::uint64_t data_seed = 0;
};

StoreCase gen_store_case(Rng& rng) {
  StoreCase c;
  c.geom = pbt::gen::chunk_geometry(rng);
  c.data_seed = rng.next();
  return c;
}

std::string show_store_case(const StoreCase& c) {
  std::ostringstream os;
  os << "n_traces=" << c.geom.n_traces << " n_samples=" << c.geom.n_samples
     << " chunk_traces=" << c.geom.chunk_traces << " data_seed=0x" << std::hex
     << c.data_seed;
  return os.str();
}

std::vector<StoreCase> shrink_store_case(const StoreCase& c) {
  std::vector<StoreCase> out;
  for (const std::uint64_t n : pbt::shrink_uint(c.geom.n_traces, 1)) {
    StoreCase s = c;
    s.geom.n_traces = static_cast<std::size_t>(n);
    out.push_back(s);
  }
  for (const std::uint64_t m : pbt::shrink_uint(c.geom.n_samples, 1)) {
    StoreCase s = c;
    s.geom.n_samples = static_cast<std::size_t>(m);
    out.push_back(s);
  }
  for (const std::uint64_t k : pbt::shrink_uint(c.geom.chunk_traces, 1)) {
    StoreCase s = c;
    s.geom.chunk_traces = static_cast<std::size_t>(k);
    out.push_back(s);
  }
  return out;
}

/// Per-call unique scratch path; every property deletes its file before
/// returning so a long nightly run does not fill the temp dir.
std::string case_path(const char* tag) {
  static int counter = 0;
  std::ostringstream os;
  os << "pbt_store_" << tag << "_" << counter++ << ".rtst";
  return test::temp_path(os.str());
}

/// RAII deleter so property early-returns cannot leak scratch files.
struct PathGuard {
  std::string path;
  ~PathGuard() { std::filesystem::remove(path); }
};

struct WrittenStore {
  std::string path;
  std::vector<aes::Block> pt, ct;
  std::vector<std::vector<float>> traces;
};

WrittenStore write_store(const StoreCase& c, const char* tag) {
  WrittenStore w;
  w.path = case_path(tag);
  Rng rng(c.data_seed);
  trace::TraceStoreWriter writer(w.path, c.geom.n_samples,
                                 c.geom.chunk_traces);
  for (std::size_t i = 0; i < c.geom.n_traces; ++i) {
    w.pt.push_back(pbt::gen::block(rng));
    w.ct.push_back(pbt::gen::block(rng));
    w.traces.push_back(pbt::gen::quantized_trace(rng, c.geom.n_samples));
    writer.add(w.traces.back(), w.pt.back(), w.ct.back());
  }
  writer.finalize();
  return w;
}

std::uint64_t bytes_per_trace(const ChunkGeometry& g) {
  return 32 + 4 * static_cast<std::uint64_t>(g.n_samples);
}

/// File offset of chunk `k`'s header.
std::uint64_t chunk_offset(const ChunkGeometry& g, std::size_t k) {
  return kHeaderBytes +
         static_cast<std::uint64_t>(k) *
             (kChunkHeaderBytes + g.chunk_traces * bytes_per_trace(g));
}

std::size_t chunk_count_at(const ChunkGeometry& g, std::size_t k) {
  const std::size_t full = g.n_traces / g.chunk_traces;
  if (k < full) return g.chunk_traces;
  return g.n_traces % g.chunk_traces;
}

void flip_bit(const std::string& path, std::uint64_t byte, unsigned bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(byte));
  char v = 0;
  f.read(&v, 1);
  ASSERT_TRUE(f.good()) << "read at " << byte;
  v = static_cast<char>(v ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(byte));
  f.write(&v, 1);
  ASSERT_TRUE(f.good()) << "write at " << byte;
}

TEST(PbtStore, RoundTripBitExactUnderArbitraryChunkGeometry) {
  const Config cfg = Config::from_env(0x5704E1, 120);
  const bool ok = pbt::check<StoreCase>(
      "rtst_roundtrip", gen_store_case,
      [](const StoreCase& c) -> std::optional<std::string> {
        const WrittenStore w = write_store(c, "rt");
        PathGuard guard{w.path};
        trace::TraceStore store(w.path);
        if (store.size() != c.geom.n_traces) return "trace count changed";
        if (store.samples() != c.geom.n_samples) return "sample count changed";
        const std::size_t want_chunks =
            (c.geom.n_traces + c.geom.chunk_traces - 1) / c.geom.chunk_traces;
        if (store.chunk_count() != want_chunks) {
          std::ostringstream os;
          os << "chunk count " << store.chunk_count() << " != expected "
             << want_chunks;
          return os.str();
        }
        const trace::StoreVerifyResult vr = store.verify();
        if (!vr.ok) return "verify failed on a pristine store: " + vr.error;
        std::size_t seen = 0;
        for (std::size_t k = 0; k < store.chunk_count(); ++k) {
          const trace::TraceChunk chunk = store.chunk(k);
          if (chunk.first() != k * c.geom.chunk_traces)
            return "chunk first() misplaced";
          for (std::size_t t = 0; t < chunk.count(); ++t, ++seen) {
            const std::span<const float> got = chunk.trace(t);
            if (std::memcmp(got.data(), w.traces[seen].data(),
                            4 * c.geom.n_samples) != 0)
              return "trace payload diverged at trace " +
                     std::to_string(seen);
            if (chunk.plaintext(t) != w.pt[seen] ||
                chunk.ciphertext(t) != w.ct[seen])
              return "pt/ct diverged at trace " + std::to_string(seen);
          }
        }
        if (seen != c.geom.n_traces) return "chunk walk lost traces";
        return std::nullopt;
      },
      cfg, shrink_store_case, show_store_case);
  EXPECT_TRUE(ok);
}

struct HeaderFlipCase {
  StoreCase store;
  std::uint64_t byte = 0;
  unsigned bit = 0;
};

TEST(PbtStore, HeaderBitFlipsAreRejectedAtOpen) {
  // Every byte the header CRC covers: magic, schema, the four geometry
  // fields and the CRC itself.  A flip must make the constructor throw —
  // opening a store whose geometry cannot be trusted would turn every
  // downstream bounds calculation into undefined behaviour.
  const Config cfg = Config::from_env(0x5704E2, 120);
  const bool ok = pbt::check<HeaderFlipCase>(
      "rtst_header_bitflip",
      [](Rng& rng) {
        HeaderFlipCase c;
        c.store = gen_store_case(rng);
        c.byte = rng.uniform(kCoveredHeaderBytes);
        c.bit = static_cast<unsigned>(rng.uniform(8));
        return c;
      },
      [](const HeaderFlipCase& c) -> std::optional<std::string> {
        const WrittenStore w = write_store(c.store, "hdr");
        PathGuard guard{w.path};
        flip_bit(w.path, c.byte, c.bit);
        try {
          trace::TraceStore store(w.path);
        } catch (const std::runtime_error&) {
          return std::nullopt;  // rejected cleanly, as required
        }
        std::ostringstream os;
        os << "store opened despite a flipped header bit (byte " << c.byte
           << " bit " << c.bit << ")";
        return os.str();
      },
      cfg, {},
      [](const HeaderFlipCase& c) {
        std::ostringstream os;
        os << show_store_case(c.store) << " byte=" << c.byte
           << " bit=" << c.bit;
        return os.str();
      });
  EXPECT_TRUE(ok);
}

struct TruncateCase {
  StoreCase store;
  /// Fraction of the file to keep, in [0, 1).
  double keep = 0.0;
};

TEST(PbtStore, TruncatedFilesAreRejectedAtOpen) {
  const Config cfg = Config::from_env(0x5704E3, 120);
  const bool ok = pbt::check<TruncateCase>(
      "rtst_truncation",
      [](Rng& rng) {
        TruncateCase c;
        c.store = gen_store_case(rng);
        c.keep = rng.uniform01();
        return c;
      },
      [](const TruncateCase& c) -> std::optional<std::string> {
        const WrittenStore w = write_store(c.store, "trunc");
        PathGuard guard{w.path};
        const auto full = std::filesystem::file_size(w.path);
        const auto keep = static_cast<std::uintmax_t>(
            c.keep * static_cast<double>(full));
        std::filesystem::resize_file(w.path, keep);
        try {
          trace::TraceStore store(w.path);
        } catch (const std::runtime_error&) {
          return std::nullopt;
        }
        std::ostringstream os;
        os << "store opened despite truncation to " << keep << "/" << full
           << " bytes";
        return os.str();
      },
      cfg, {},
      [](const TruncateCase& c) {
        std::ostringstream os;
        os << show_store_case(c.store) << " keep=" << c.keep;
        return os.str();
      });
  EXPECT_TRUE(ok);
}

struct PayloadFlipCase {
  StoreCase store;
  std::size_t chunk = 0;
  std::uint64_t payload_byte = 0;
  unsigned bit = 0;
};

TEST(PbtStore, PayloadBitFlipsAreLocatedByVerify) {
  // A flipped payload bit may not crash the open path, and verify() must
  // name the owning chunk — that is the contract the rftc-trace CLI and
  // the out-of-core campaign integrity sweeps rely on.
  const Config cfg = Config::from_env(0x5704E4, 120);
  const bool ok = pbt::check<PayloadFlipCase>(
      "rtst_payload_bitflip",
      [](Rng& rng) {
        PayloadFlipCase c;
        c.store = gen_store_case(rng);
        const std::size_t chunks =
            (c.store.geom.n_traces + c.store.geom.chunk_traces - 1) /
            c.store.geom.chunk_traces;
        c.chunk = static_cast<std::size_t>(rng.uniform(chunks));
        const std::uint64_t payload_bytes =
            chunk_count_at(c.store.geom, c.chunk) *
            bytes_per_trace(c.store.geom);
        c.payload_byte = rng.uniform(payload_bytes);
        c.bit = static_cast<unsigned>(rng.uniform(8));
        return c;
      },
      [](const PayloadFlipCase& c) -> std::optional<std::string> {
        const WrittenStore w = write_store(c.store, "payload");
        PathGuard guard{w.path};
        flip_bit(w.path,
                 chunk_offset(c.store.geom, c.chunk) + kChunkHeaderBytes +
                     c.payload_byte,
                 c.bit);
        trace::TraceStore store(w.path);  // geometry is intact: must open
        const trace::StoreVerifyResult vr = store.verify();
        if (vr.ok) return "verify passed over a corrupted payload";
        for (const trace::StoreChunkFailure& f : vr.failures)
          if (f.chunk == c.chunk) return std::nullopt;
        std::ostringstream os;
        os << "verify flagged " << vr.failures.size()
           << " chunk(s) but not the corrupted one (" << c.chunk << ")";
        return os.str();
      },
      cfg, {},
      [](const PayloadFlipCase& c) {
        std::ostringstream os;
        os << show_store_case(c.store) << " chunk=" << c.chunk
           << " payload_byte=" << c.payload_byte << " bit=" << c.bit;
        return os.str();
      });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace rftc
