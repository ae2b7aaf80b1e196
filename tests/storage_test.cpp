// Property tests of the storage layer: a written .pansnap, mapped back,
// must be indistinguishable from the in-process pipeline - same Graph and
// World tables, byte-identical CSR arrays, identical path-enumeration
// results at any thread count - files carrying retired section kinds must
// keep opening, and malformed files must be rejected, not crashed on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "panagree/scenario/metrics.hpp"
#include "panagree/scenario/overlay.hpp"
#include "panagree/paths/parallel.hpp"
#include "panagree/storage/format.hpp"
#include "panagree/storage/snapshot.hpp"
#include "panagree/topology/caida.hpp"
#include "panagree/topology/capacity.hpp"
#include "panagree/topology/compiled.hpp"
#include "panagree/topology/generator.hpp"

namespace panagree::storage {
namespace {

using topology::AsId;
using topology::CompiledTopology;
using topology::GeneratedTopology;
using topology::Graph;

/// A writable temp path, removed at scope exit. The pid suffix keeps
/// concurrent test processes (ctest -j runs each case separately) from
/// racing on the same file.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + name + "." +
              std::to_string(::getpid())) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The section table of a snapshot's raw bytes, read the way the reader
/// does (header first, then section_count records at its offset).
std::vector<SectionRecord> section_table(const std::string& bytes) {
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<SectionRecord> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + header.section_table_offset,
              table.size() * sizeof(SectionRecord));
  return table;
}

GeneratedTopology make_fixture(std::size_t ases, std::uint64_t seed) {
  topology::GeneratorParams params;
  params.num_ases = ases;
  params.tier1_count = 5;
  params.seed = seed;
  GeneratedTopology topo = topology::generate_internet(params);
  topology::assign_degree_gravity_capacities(topo.graph);
  return topo;
}

void expect_graphs_equal(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.num_ases(), expected.num_ases());
  ASSERT_EQ(actual.num_links(), expected.num_links());
  for (AsId as = 0; as < expected.num_ases(); ++as) {
    const topology::AsInfo& a = actual.info(as);
    const topology::AsInfo& e = expected.info(as);
    EXPECT_EQ(a.name, e.name) << "as " << as;
    EXPECT_EQ(a.tier, e.tier) << "as " << as;
    EXPECT_EQ(a.region, e.region) << "as " << as;
    EXPECT_EQ(a.pops, e.pops) << "as " << as;
    EXPECT_EQ(a.centroid, e.centroid) << "as " << as;
    EXPECT_EQ(a.has_geo, e.has_geo) << "as " << as;
    EXPECT_EQ(actual.providers(as), expected.providers(as)) << "as " << as;
    EXPECT_EQ(actual.peers(as), expected.peers(as)) << "as " << as;
    EXPECT_EQ(actual.customers(as), expected.customers(as)) << "as " << as;
  }
  for (topology::LinkId id = 0; id < expected.num_links(); ++id) {
    const topology::Link& a = actual.link(id);
    const topology::Link& e = expected.link(id);
    EXPECT_EQ(a.a, e.a) << "link " << id;
    EXPECT_EQ(a.b, e.b) << "link " << id;
    EXPECT_EQ(a.type, e.type) << "link " << id;
    EXPECT_EQ(a.facilities, e.facilities) << "link " << id;
    EXPECT_EQ(a.capacity, e.capacity) << "link " << id;
  }
}

void expect_worlds_equal(const geo::World& actual,
                         const geo::World& expected) {
  ASSERT_EQ(actual.cities().size(), expected.cities().size());
  ASSERT_EQ(actual.regions().size(), expected.regions().size());
  for (std::size_t c = 0; c < expected.cities().size(); ++c) {
    EXPECT_EQ(actual.cities()[c].name, expected.cities()[c].name);
    EXPECT_EQ(actual.cities()[c].location, expected.cities()[c].location);
    EXPECT_EQ(actual.cities()[c].region, expected.cities()[c].region);
  }
  for (std::size_t r = 0; r < expected.regions().size(); ++r) {
    EXPECT_EQ(actual.regions()[r].name, expected.regions()[r].name);
    EXPECT_EQ(actual.regions()[r].center, expected.regions()[r].center);
    EXPECT_EQ(actual.regions()[r].radius_km, expected.regions()[r].radius_km);
    EXPECT_EQ(actual.regions()[r].city_ids, expected.regions()[r].city_ids);
  }
}

/// The tentpole property: the mmap'd CSR view is byte-identical to the
/// in-process compile (same row order, same ids, same entry bytes).
void expect_csr_identical(const CompiledTopology& view,
                          const CompiledTopology& compiled) {
  EXPECT_FALSE(view.owns_storage());
  EXPECT_TRUE(compiled.owns_storage());
  EXPECT_TRUE(std::ranges::equal(view.row_start_array(),
                                 compiled.row_start_array()));
  EXPECT_TRUE(std::ranges::equal(view.providers_end_array(),
                                 compiled.providers_end_array()));
  EXPECT_TRUE(std::ranges::equal(view.peers_end_array(),
                                 compiled.peers_end_array()));
  ASSERT_EQ(view.entry_array().size(), compiled.entry_array().size());
  EXPECT_TRUE(
      std::ranges::equal(view.entry_array(), compiled.entry_array()));
}

/// Writer determinism: the same topology serializes to the same bytes
/// (entry padding is zeroed by the writer; nothing indeterminate leaks
/// into the file).
TEST(SnapshotRoundTrip, WritesAreByteDeterministic) {
  const GeneratedTopology topo = make_fixture(120, 8);
  const CompiledTopology compiled(topo.graph);
  TempFile a("deterministic_a.pansnap");
  TempFile b("deterministic_b.pansnap");
  write_snapshot(a.path(), topo, compiled);
  write_snapshot(b.path(), topo, compiled);
  const std::string bytes_a = read_bytes(a.path());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, read_bytes(b.path()));
}

TEST(SnapshotRoundTrip, SyntheticTopologySurvivesWriteAndMmap) {
  const GeneratedTopology topo = make_fixture(400, 2024);
  const CompiledTopology compiled(topo.graph);
  TempFile file("roundtrip_synthetic.pansnap");
  write_snapshot(file.path(), topo, compiled);

  const MappedSnapshot snapshot = MappedSnapshot::open(file.path());
  expect_graphs_equal(snapshot.graph(), topo.graph);
  expect_worlds_equal(snapshot.world(), topo.world);
  EXPECT_EQ(snapshot.tier1(), topo.tier1);
  EXPECT_EQ(snapshot.tier2(), topo.tier2);
  EXPECT_EQ(snapshot.tier3(), topo.tier3);
  expect_csr_identical(snapshot.topology(), compiled);
}

TEST(SnapshotRoundTrip, SeededVariantsSurvive) {
  for (const std::uint64_t seed : {1ull, 7ull, 31337ull}) {
    const GeneratedTopology topo = make_fixture(150, seed);
    const CompiledTopology compiled(topo.graph);
    TempFile file("roundtrip_seed.pansnap");
    write_snapshot(file.path(), topo, compiled);
    const MappedSnapshot snapshot = MappedSnapshot::open(file.path());
    expect_graphs_equal(snapshot.graph(), topo.graph);
    expect_csr_identical(snapshot.topology(), compiled);
  }
}

TEST(SnapshotRoundTrip, CaidaFixtureSurvives) {
  auto dataset =
      topology::caida::parse_file(PANAGREE_TEST_DATA_DIR
                                  "/as-rel2-small.txt");
  GeneratedTopology topo =
      topology::embed_relationship_graph(std::move(dataset.graph), 424242);
  topology::assign_degree_gravity_capacities(topo.graph);
  const CompiledTopology compiled(topo.graph);
  TempFile file("roundtrip_caida.pansnap");
  write_snapshot(file.path(), topo, compiled);

  const MappedSnapshot snapshot = MappedSnapshot::open(file.path());
  expect_graphs_equal(snapshot.graph(), topo.graph);
  expect_worlds_equal(snapshot.world(), topo.world);
  expect_csr_identical(snapshot.topology(), compiled);

  // The same fixture compiled with `--shards 2 --sources 14` by a writer
  // that still emitted the shard-plan and primed-baseline sections (kinds
  // 60-62 and 70-72, retired since). The reader skips kinds it does not
  // read, so the file opens to the same topology.
  const std::string legacy_path =
      PANAGREE_TEST_DATA_DIR "/legacy-primed-v1.pansnap";
  std::vector<std::uint32_t> kinds;
  for (const SectionRecord& record : section_table(read_bytes(legacy_path))) {
    kinds.push_back(record.kind);
  }
  for (const std::uint32_t retired : {60u, 61u, 62u, 70u, 71u, 72u}) {
    EXPECT_NE(std::ranges::find(kinds, retired), kinds.end())
        << "fixture lacks retired section " << retired;
  }
  const MappedSnapshot legacy = MappedSnapshot::open(legacy_path);
  expect_graphs_equal(legacy.graph(), topo.graph);
  expect_worlds_equal(legacy.world(), topo.world);
  expect_csr_identical(legacy.topology(), compiled);
}

TEST(SnapshotRoundTrip, BehavioralLookupsMatchOwningCompile) {
  const GeneratedTopology topo = make_fixture(300, 5);
  const CompiledTopology compiled(topo.graph);
  TempFile file("roundtrip_lookup.pansnap");
  write_snapshot(file.path(), topo, compiled);
  const MappedSnapshot snapshot = MappedSnapshot::open(file.path());
  const CompiledTopology& view = snapshot.topology();

  ASSERT_EQ(view.num_ases(), compiled.num_ases());
  util::Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<AsId>(rng.uniform_index(view.num_ases()));
    const auto y = static_cast<AsId>(rng.uniform_index(view.num_ases()));
    EXPECT_EQ(view.role_of(x, y), compiled.role_of(x, y));
    EXPECT_EQ(view.link_between(x, y), compiled.link_between(x, y));
    EXPECT_EQ(view.degree(x), compiled.degree(x));
  }
}

TEST(SnapshotRoundTrip, PathEnumerationIdenticalAtAnyThreadCount) {
  const GeneratedTopology topo = make_fixture(400, 99);
  const CompiledTopology compiled(topo.graph);
  TempFile file("roundtrip_paths.pansnap");
  write_snapshot(file.path(), topo, compiled);
  const MappedSnapshot snapshot = MappedSnapshot::open(file.path());

  std::vector<AsId> sources;
  for (AsId src = 0; src < compiled.num_ases(); src += 3) {
    sources.push_back(src);
  }
  const scenario::Overlay in_process(compiled);
  const std::vector<scenario::SourcePathSet> expected = paths::map_sources(
      sources, 1, [&](AsId src) {
        return scenario::enumerate_length3(in_process, src);
      });
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const scenario::Overlay mapped(snapshot.topology());
    const std::vector<scenario::SourcePathSet> actual = paths::map_sources(
        sources, threads, [&](AsId src) {
          return scenario::enumerate_length3(mapped, src);
        });
    EXPECT_EQ(actual, expected) << threads << " threads";
  }
}

// ------------------------------------------------------------- rejection

/// Writes a valid snapshot, then hands the raw bytes to `corrupt` and
/// writes them back - every mutation must be rejected with a SnapshotError
/// whose message contains `message` (any message when empty).
template <typename Corrupt>
void expect_rejected(const Corrupt& corrupt, const char* what,
                     const std::string& message = "") {
  const GeneratedTopology topo = make_fixture(60, 3);
  const CompiledTopology compiled(topo.graph);
  TempFile file("rejection.pansnap");
  write_snapshot(file.path(), topo, compiled);

  std::string bytes = read_bytes(file.path());
  corrupt(bytes);
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)MappedSnapshot::open(file.path());
    ADD_FAILURE() << what << ": opened without an error";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(SnapshotRejection, BadMagic) {
  expect_rejected([](std::string& bytes) { bytes[0] = 'X'; }, "bad magic");
}

TEST(SnapshotRejection, VersionMismatch) {
  expect_rejected(
      [](std::string& bytes) {
        const std::uint32_t version = kFormatVersion + 1;
        std::memcpy(bytes.data() + 8, &version, sizeof(version));
      },
      "future version");
}

TEST(SnapshotRejection, EndiannessMismatch) {
  expect_rejected(
      [](std::string& bytes) {
        std::swap(bytes[12], bytes[15]);
        std::swap(bytes[13], bytes[14]);
      },
      "byte-swapped endian probe");
}

TEST(SnapshotRejection, TruncatedFiles) {
  // Truncation anywhere - inside the header, the section table, or a
  // payload - must reject, never read out of bounds.
  for (const double fraction : {0.1, 0.5, 0.9, 0.99}) {
    expect_rejected(
        [fraction](std::string& bytes) {
          bytes.resize(static_cast<std::size_t>(
              static_cast<double>(bytes.size()) * fraction));
        },
        "truncated file");
  }
  expect_rejected([](std::string& bytes) { bytes.resize(4); },
                  "no full header");
}

TEST(SnapshotRejection, TrailingGarbageChangesFileSize) {
  expect_rejected([](std::string& bytes) { bytes.append(64, '\0'); },
                  "grown file");
}

TEST(SnapshotRejection, OutOfRangeCsrEntry) {
  // Flip an entry's neighbor to an out-of-range id: the reader's CSR
  // validation must catch it. The kEntries section is located through the
  // section table, mirroring the reader.
  expect_rejected(
      [](std::string& bytes) {
        for (const SectionRecord& record : section_table(bytes)) {
          if (record.kind ==
              static_cast<std::uint32_t>(SectionKind::kEntries)) {
            const std::uint32_t bogus = 0xFFFFFFFF;
            std::memcpy(bytes.data() + record.offset, &bogus,
                        sizeof(bogus));
            return;
          }
        }
        FAIL() << "kEntries section not found";
      },
      "out-of-range CSR entry");
}

/// File offset of entry `index` of the kEntries section.
std::size_t entry_offset(const std::string& bytes, std::size_t index) {
  for (const SectionRecord& record : section_table(bytes)) {
    if (record.kind == static_cast<std::uint32_t>(SectionKind::kEntries)) {
      return record.offset + index * sizeof(TopoEntry);
    }
  }
  ADD_FAILURE() << "kEntries section not found";
  return 0;
}

TEST(SnapshotRejection, RoleByteMovedToAnotherValidRole) {
  // The first provider entry of some row, relabelled as a peer or a
  // customer: a valid role byte, but not its row group's. The rejection
  // names the row's AS. expect_rejected writes this fixture.
  const CompiledTopology compiled(make_fixture(60, 3).graph);
  AsId as = 0;
  while (compiled.providers(as).empty()) {
    ++as;
  }
  const std::size_t index = compiled.row_start_array()[as];
  for (const auto role :
       {topology::NeighborRole::kPeer, topology::NeighborRole::kCustomer}) {
    expect_rejected(
        [&](std::string& bytes) {
          bytes[entry_offset(bytes, index) + offsetof(TopoEntry, role)] =
              static_cast<char>(role);
        },
        "role byte moved to another valid role",
        "CSR entry role does not match its row group at AS " +
            std::to_string(as));
  }
}

TEST(SnapshotRejection, SwappedEntriesOfOneRowGroup) {
  // Two neighbors of one group swapped: same roles, same row, but the
  // group is no longer ascending, which find()'s binary search assumes.
  const CompiledTopology compiled(make_fixture(60, 3).graph);
  AsId as = 0;
  while (compiled.customers(as).size() < 2) {
    ++as;
  }
  const std::size_t index = compiled.peers_end_array()[as];
  expect_rejected(
      [&](std::string& bytes) {
        const std::size_t at = entry_offset(bytes, index);
        std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         bytes.begin() + static_cast<std::ptrdiff_t>(
                                             at + sizeof(TopoEntry)),
                         bytes.begin() + static_cast<std::ptrdiff_t>(
                                             at + sizeof(TopoEntry)));
      },
      "two entries of one row group swapped",
      "CSR row group not strictly ascending at AS " + std::to_string(as));
}

TEST(SnapshotRejection, SectionCountWrappingTheTableSize) {
  // count * sizeof(SectionRecord) wraps to 8 bytes in 64 bits for this
  // count, so a bound on the table's byte size alone would pass and the
  // record loop would walk past the table. The count itself is bounded.
  constexpr std::uint64_t kCount =
      std::numeric_limits<std::uint64_t>::max() / sizeof(SectionRecord) + 1;
  static_assert(kCount * sizeof(SectionRecord) == 8);
  expect_rejected(
      [](std::string& bytes) {
        FileHeader header;
        std::memcpy(&header, bytes.data(), sizeof(header));
        header.section_count = kCount;
        std::memcpy(bytes.data(), &header, sizeof(header));
      },
      "section count wrapping the table size", "section table out of bounds");
}

TEST(SnapshotRejection, MissingFileThrows) {
  EXPECT_THROW((void)MappedSnapshot::open("/nonexistent/path/to.pansnap"),
               SnapshotError);
}

}  // namespace
}  // namespace panagree::storage
