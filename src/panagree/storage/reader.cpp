// .pansnap reader: validates the mapped file, materializes Graph/World,
// and borrows the CSR arrays zero-copy out of the mapping.
#include <cstring>
#include <unordered_map>

#include "panagree/obs/metrics.hpp"
#include "panagree/storage/snapshot.hpp"

namespace panagree::storage {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw SnapshotError("MappedSnapshot: " + what);
}

/// Bounds-checked, typed access to the mapped sections.
class SectionIndex {
 public:
  SectionIndex(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {
    if (size_ < sizeof(FileHeader)) {
      reject("file truncated (no header)");
    }
    std::memcpy(&header_, data_, sizeof(header_));
    if (std::memcmp(header_.magic, kMagic, sizeof(kMagic)) != 0) {
      reject("bad magic (not a .pansnap file)");
    }
    if (header_.endian_probe != kEndianProbe) {
      reject("endianness mismatch (snapshot written on a foreign host)");
    }
    if (header_.version != kFormatVersion) {
      reject("version mismatch (file version " +
             std::to_string(header_.version) + ", reader version " +
             std::to_string(kFormatVersion) + "); recompile the snapshot");
    }
    if (header_.file_bytes != size_) {
      reject("file truncated (header records " +
             std::to_string(header_.file_bytes) + " bytes, mapped " +
             std::to_string(size_) + ")");
    }
    // Bound the record count by what fits behind the table offset; the
    // byte product count * sizeof(SectionRecord) can wrap in 64 bits.
    if (header_.section_table_offset > size_ ||
        header_.section_count >
            (size_ - header_.section_table_offset) / sizeof(SectionRecord)) {
      reject("section table out of bounds");
    }
    // Every record is checked, including kinds open() never looks up
    // (retired or unknown ones), which are then simply skipped.
    for (std::uint64_t i = 0; i < header_.section_count; ++i) {
      SectionRecord record;
      std::memcpy(&record,
                  data_ + header_.section_table_offset +
                      i * sizeof(SectionRecord),
                  sizeof(record));
      if (record.offset % kSectionAlignment != 0 || record.offset > size_ ||
          record.bytes > size_ - record.offset) {
        reject("section " + std::to_string(record.kind) + " out of bounds");
      }
      if (!records_.emplace(record.kind, record).second) {
        reject("duplicate section " + std::to_string(record.kind));
      }
    }
  }

  [[nodiscard]] const FileHeader& header() const { return header_; }

  /// The section's payload as a typed array of exactly `count` elements.
  template <typename T>
  [[nodiscard]] std::span<const T> array(SectionKind kind,
                                         std::size_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const SectionRecord& record = find(kind);
    if (record.bytes != count * sizeof(T)) {
      reject("section " + std::to_string(record.kind) + " has " +
             std::to_string(record.bytes) + " bytes, expected " +
             std::to_string(count * sizeof(T)));
    }
    return {reinterpret_cast<const T*>(data_ + record.offset), count};
  }

  /// A jagged payload section whose element count comes from the last
  /// entry of its begin-offset array.
  template <typename T>
  [[nodiscard]] std::span<const T> jagged(SectionKind kind,
                                          std::span<const std::uint32_t>
                                              begins) const {
    if (begins.empty()) {
      reject("empty begin-offset array");
    }
    return array<T>(kind, begins.back());
  }

  /// Absolute file range of a section's payload (for access-pattern
  /// advice on the mapping).
  [[nodiscard]] std::pair<std::size_t, std::size_t> payload_range(
      SectionKind kind) const {
    const SectionRecord& record = find(kind);
    return {static_cast<std::size_t>(record.offset),
            static_cast<std::size_t>(record.bytes)};
  }

  /// A section holding a plain id list whose length is implied by its byte
  /// count (the tier membership lists).
  [[nodiscard]] std::span<const std::uint32_t> id_list(
      SectionKind kind) const {
    const SectionRecord& record = find(kind);
    if (record.bytes % sizeof(std::uint32_t) != 0) {
      reject("section " + std::to_string(record.kind) +
             " is not a whole number of ids");
    }
    return array<std::uint32_t>(kind,
                                record.bytes / sizeof(std::uint32_t));
  }

 private:
  [[nodiscard]] const SectionRecord& find(SectionKind kind) const {
    const auto it = records_.find(static_cast<std::uint32_t>(kind));
    if (it == records_.end()) {
      reject("missing section " +
             std::to_string(static_cast<std::uint32_t>(kind)));
    }
    return it->second;
  }

  const std::byte* data_;
  std::size_t size_;
  FileHeader header_{};
  std::unordered_map<std::uint32_t, SectionRecord> records_;
};

/// Monotone begin-offset array check (jagged rows must be well-formed
/// before any row is sliced out of the payload).
void check_begins(std::span<const std::uint32_t> begins, const char* what) {
  if (begins.empty() || begins.front() != 0) {
    reject(std::string(what) + ": begin-offset array must start at 0");
  }
  for (std::size_t i = 1; i < begins.size(); ++i) {
    if (begins[i] < begins[i - 1]) {
      reject(std::string(what) + ": begin-offset array not monotone");
    }
  }
}

/// WILLNEED prefetch on the CSR sections (the first arrays any analysis
/// walks).
MmapAdviceReport apply_advice(const MmapFile& file,
                              const SectionIndex& sections) {
  MmapAdviceReport report;
  report.willneed_applied = true;
  for (const SectionKind kind :
       {SectionKind::kRowStart, SectionKind::kProvidersEnd,
        SectionKind::kPeersEnd, SectionKind::kEntries}) {
    const auto [offset, bytes] = sections.payload_range(kind);
    if (bytes > 0 && !file.prefetch(offset, bytes)) {
      report.willneed_applied = false;
    }
  }
  return report;
}

}  // namespace

std::string MmapAdviceReport::describe() const {
  return std::string("willneed(csr)=") +
         (willneed_applied ? "applied" : "refused");
}

MappedSnapshot MappedSnapshot::open(const std::string& path) {
  MmapFile file = MmapFile::open(path);
  const SectionIndex sections(file.data(), file.size());
  const FileHeader& header = sections.header();
  const auto n = static_cast<std::size_t>(header.num_ases);
  const auto num_links = static_cast<std::size_t>(header.num_links);
  const auto num_cities = static_cast<std::size_t>(header.num_cities);
  const auto num_regions = static_cast<std::size_t>(header.num_regions);

  auto state = std::make_unique<State>();

  // ----------------------------------------------------------- AS table
  const auto tier = sections.array<std::int32_t>(SectionKind::kAsTier, n);
  const auto as_region =
      sections.array<std::uint32_t>(SectionKind::kAsRegion, n);
  const auto centroid =
      sections.array<double>(SectionKind::kAsCentroid, 2 * n);
  const auto has_geo =
      sections.array<std::uint8_t>(SectionKind::kAsHasGeo, n);
  const auto pop_begin =
      sections.array<std::uint32_t>(SectionKind::kAsPopBegin, n + 1);
  check_begins(pop_begin, "AS PoPs");
  const auto pops =
      sections.jagged<std::uint32_t>(SectionKind::kAsPops, pop_begin);
  const auto name_begin =
      sections.array<std::uint32_t>(SectionKind::kAsNameBegin, n + 1);
  check_begins(name_begin, "AS names");
  const auto names =
      sections.jagged<char>(SectionKind::kAsNames, name_begin);

  std::vector<topology::AsInfo> infos(n);
  for (std::size_t as = 0; as < n; ++as) {
    topology::AsInfo& info = infos[as];
    info.name.assign(names.data() + name_begin[as],
                     names.data() + name_begin[as + 1]);
    info.tier = tier[as];
    info.region = as_region[as];
    info.centroid = {centroid[2 * as], centroid[2 * as + 1]};
    info.has_geo = has_geo[as] != 0;
    info.pops.assign(pops.begin() + pop_begin[as],
                     pops.begin() + pop_begin[as + 1]);
  }

  // --------------------------------------------------------- link table
  const auto link_a = sections.array<std::uint32_t>(SectionKind::kLinkA,
                                                    num_links);
  const auto link_b = sections.array<std::uint32_t>(SectionKind::kLinkB,
                                                    num_links);
  const auto link_type =
      sections.array<std::uint8_t>(SectionKind::kLinkType, num_links);
  const auto capacity =
      sections.array<double>(SectionKind::kLinkCapacity, num_links);
  const auto fac_begin = sections.array<std::uint32_t>(
      SectionKind::kLinkFacilityBegin, num_links + 1);
  check_begins(fac_begin, "link facilities");
  const auto facilities =
      sections.jagged<std::uint32_t>(SectionKind::kLinkFacilities, fac_begin);

  std::vector<topology::Link> links(num_links);
  for (std::size_t id = 0; id < num_links; ++id) {
    topology::Link& link = links[id];
    link.a = link_a[id];
    link.b = link_b[id];
    if (link_type[id] > 1) {
      reject("link " + std::to_string(id) + " has invalid type byte");
    }
    link.type = static_cast<topology::LinkType>(link_type[id]);
    link.capacity = capacity[id];
    link.facilities.assign(facilities.begin() + fac_begin[id],
                           facilities.begin() + fac_begin[id + 1]);
  }

  try {
    state->graph = topology::Graph::restore(std::move(infos),
                                            std::move(links));
  } catch (const util::PreconditionError& e) {
    reject(std::string("inconsistent graph tables: ") + e.what());
  }

  // -------------------------------------------------------- world tables
  const auto city_location =
      sections.array<double>(SectionKind::kCityLocation, 2 * num_cities);
  const auto city_region =
      sections.array<std::uint32_t>(SectionKind::kCityRegion, num_cities);
  const auto city_name_begin = sections.array<std::uint32_t>(
      SectionKind::kCityNameBegin, num_cities + 1);
  check_begins(city_name_begin, "city names");
  const auto city_names =
      sections.jagged<char>(SectionKind::kCityNames, city_name_begin);
  const auto region_center =
      sections.array<double>(SectionKind::kRegionCenter, 2 * num_regions);
  const auto region_radius =
      sections.array<double>(SectionKind::kRegionRadius, num_regions);
  const auto region_name_begin = sections.array<std::uint32_t>(
      SectionKind::kRegionNameBegin, num_regions + 1);
  check_begins(region_name_begin, "region names");
  const auto region_names =
      sections.jagged<char>(SectionKind::kRegionNames, region_name_begin);
  const auto region_city_begin = sections.array<std::uint32_t>(
      SectionKind::kRegionCityBegin, num_regions + 1);
  check_begins(region_city_begin, "region city ids");
  const auto region_city_ids = sections.jagged<std::uint32_t>(
      SectionKind::kRegionCityIds, region_city_begin);

  std::vector<geo::City> cities(num_cities);
  for (std::size_t c = 0; c < num_cities; ++c) {
    cities[c].name.assign(city_names.data() + city_name_begin[c],
                          city_names.data() + city_name_begin[c + 1]);
    cities[c].location = {city_location[2 * c], city_location[2 * c + 1]};
    cities[c].region = city_region[c];
  }
  std::vector<geo::Region> regions(num_regions);
  for (std::size_t r = 0; r < num_regions; ++r) {
    regions[r].name.assign(region_names.data() + region_name_begin[r],
                           region_names.data() + region_name_begin[r + 1]);
    regions[r].center = {region_center[2 * r], region_center[2 * r + 1]};
    regions[r].radius_km = region_radius[r];
    regions[r].city_ids.assign(
        region_city_ids.begin() + region_city_begin[r],
        region_city_ids.begin() + region_city_begin[r + 1]);
  }
  try {
    state->world = geo::World::restore(std::move(regions), std::move(cities));
  } catch (const util::PreconditionError& e) {
    reject(std::string("inconsistent world tables: ") + e.what());
  }

  // ---------------------------------------------------------- tier lists
  const auto load_id_list = [&](SectionKind kind, std::vector<AsId>& out,
                                const char* what) {
    const std::span<const AsId> ids = sections.id_list(kind);
    out.assign(ids.begin(), ids.end());
    for (const AsId as : out) {
      if (as >= n) {
        reject(std::string(what) + " member out of range");
      }
    }
  };
  load_id_list(SectionKind::kTier1, state->tier1, "tier1");
  load_id_list(SectionKind::kTier2, state->tier2, "tier2");
  load_id_list(SectionKind::kTier3, state->tier3, "tier3");

  // ----------------------------------------------- CSR arrays (zero-copy)
  const auto row_start =
      sections.array<std::uint32_t>(SectionKind::kRowStart, n + 1);
  const auto providers_end =
      sections.array<std::uint32_t>(SectionKind::kProvidersEnd, n);
  const auto peers_end =
      sections.array<std::uint32_t>(SectionKind::kPeersEnd, n);
  const auto entries =
      sections.array<TopoEntry>(SectionKind::kEntries, 2 * num_links);
  if (row_start.front() != 0 ||
      row_start.back() != entries.size()) {
    reject("CSR row offsets do not cover the entry array");
  }
  for (std::size_t as = 0; as < n; ++as) {
    if (row_start[as] > providers_end[as] ||
        providers_end[as] > peers_end[as] ||
        peers_end[as] > row_start[as + 1]) {
      reject("CSR role-group offsets out of order at AS " +
             std::to_string(as));
    }
  }
  // The offsets now tile the entry array. Each row is providers | peers |
  // customers, every group strictly ascending by neighbor: role-masked
  // walks select entries by group position and find() binary-searches
  // each group, so an entry whose role disagrees with its group, or a
  // group out of order, would answer wrongly instead of failing.
  for (std::size_t as = 0; as < n; ++as) {
    const std::uint32_t bound[4] = {row_start[as], providers_end[as],
                                    peers_end[as], row_start[as + 1]};
    for (std::uint8_t group = 0; group < 3; ++group) {
      for (std::uint32_t i = bound[group]; i < bound[group + 1]; ++i) {
        const TopoEntry& entry = entries[i];
        if (entry.neighbor >= n || entry.link >= num_links) {
          reject("CSR entry out of range");
        }
        if (static_cast<std::uint8_t>(entry.role) != group) {
          reject("CSR entry role does not match its row group at AS " +
                 std::to_string(as));
        }
        if (i > bound[group] && entries[i - 1].neighbor >= entry.neighbor) {
          reject("CSR row group not strictly ascending at AS " +
                 std::to_string(as));
        }
      }
    }
  }
  state->compiled = topology::CompiledTopology::borrow(
      state->graph, row_start, providers_end, peers_end, entries);

  const MmapAdviceReport advice = apply_advice(file, sections);
  if constexpr (obs::enabled()) {
    obs::Registry& registry = obs::Registry::global();
    registry.counter("storage.snapshots_opened").increment();
    registry.gauge("storage.mmap_bytes")
        .set(static_cast<std::int64_t>(file.size()));
    registry.gauge("storage.willneed_applied")
        .set(advice.willneed_applied ? 1 : 0);
  }
  return MappedSnapshot(std::move(file), std::move(state), advice);
}

}  // namespace panagree::storage
