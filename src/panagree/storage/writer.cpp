// .pansnap writer: serializes a GeneratedTopology + its compiled CSR
// snapshot into the section layout of format.hpp.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>

#include "panagree/storage/snapshot.hpp"

namespace panagree::storage {

namespace {

/// Accumulates section payloads (8-byte aligned) and their records; the
/// header and table are prepended at write time.
class SectionBuilder {
 public:
  void add(SectionKind kind, const void* data, std::size_t bytes) {
    while (payload_.size() % kSectionAlignment != 0) {
      payload_.push_back(std::byte{0});
    }
    SectionRecord record;
    record.kind = static_cast<std::uint32_t>(kind);
    record.offset = payload_.size();  // relative; rebased when writing
    record.bytes = bytes;
    records_.push_back(record);
    const auto* src = static_cast<const std::byte*>(data);
    payload_.insert(payload_.end(), src, src + bytes);
  }

  template <typename T>
  void add_array(SectionKind kind, std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    add(kind, items.data(), items.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::byte>& payload() const {
    return payload_;
  }
  [[nodiscard]] const std::vector<SectionRecord>& records() const {
    return records_;
  }

 private:
  std::vector<std::byte> payload_;
  std::vector<SectionRecord> records_;
};

std::uint32_t narrow_index(std::size_t value, const char* what) {
  util::require(value <= std::numeric_limits<std::uint32_t>::max(), what);
  return static_cast<std::uint32_t>(value);
}

/// Concatenated variable-length data: begin offsets (n + 1 u32 entries)
/// plus one payload blob.
template <typename Sequence, typename Append>
void build_jagged(std::span<const Sequence> rows, std::vector<std::uint32_t>& begins,
                  const Append& append) {
  begins.clear();
  begins.reserve(rows.size() + 1);
  std::uint32_t offset = 0;
  begins.push_back(offset);
  for (const Sequence& row : rows) {
    for (const auto& item : row) {
      append(item);
    }
    offset = narrow_index(offset + row.size(),
                          "write_snapshot: jagged payload exceeds 32 bits");
    begins.push_back(offset);
  }
}

/// Entries are staged field-by-field into zeroed bytes so the padding
/// bytes of CompiledTopology::Entry never leak indeterminate values into
/// the file (the reader casts the mapped bytes straight back to Entry).
std::vector<std::byte> stage_entries(std::span<const TopoEntry> entries) {
  std::vector<std::byte> staged(entries.size() * sizeof(TopoEntry),
                                std::byte{0});
  std::byte* out = staged.data();
  for (const TopoEntry& entry : entries) {
    std::memcpy(out + offsetof(TopoEntry, neighbor), &entry.neighbor,
                sizeof(entry.neighbor));
    std::memcpy(out + offsetof(TopoEntry, link), &entry.link,
                sizeof(entry.link));
    std::memcpy(out + offsetof(TopoEntry, role), &entry.role,
                sizeof(entry.role));
    out += sizeof(TopoEntry);
  }
  return staged;
}

}  // namespace

void write_snapshot(const std::string& path,
                    const topology::GeneratedTopology& topo,
                    const topology::CompiledTopology& compiled) {
  const topology::Graph& graph = topo.graph;
  util::require(&compiled.graph() == &graph,
                "write_snapshot: compiled snapshot does not belong to the "
                "given graph");
  const std::size_t n = graph.num_ases();
  const std::size_t num_links = graph.num_links();
  const std::size_t num_cities = topo.world.cities().size();
  const std::size_t num_regions = topo.world.regions().size();

  SectionBuilder sections;

  // CSR arrays.
  sections.add_array(SectionKind::kRowStart, compiled.row_start_array());
  sections.add_array(SectionKind::kProvidersEnd,
                     compiled.providers_end_array());
  sections.add_array(SectionKind::kPeersEnd, compiled.peers_end_array());
  const std::vector<std::byte> staged_entries =
      stage_entries(compiled.entry_array());
  sections.add(SectionKind::kEntries, staged_entries.data(),
               staged_entries.size());

  // Link table.
  {
    std::vector<std::uint32_t> a, b, fac_begin, facilities;
    std::vector<std::uint8_t> type;
    std::vector<double> capacity;
    a.reserve(num_links);
    b.reserve(num_links);
    type.reserve(num_links);
    capacity.reserve(num_links);
    std::vector<std::span<const std::size_t>> fac_rows;
    fac_rows.reserve(num_links);
    for (const topology::Link& link : graph.links()) {
      a.push_back(link.a);
      b.push_back(link.b);
      type.push_back(static_cast<std::uint8_t>(link.type));
      capacity.push_back(link.capacity);
      fac_rows.push_back(link.facilities);
    }
    build_jagged<std::span<const std::size_t>>(
        fac_rows, fac_begin, [&](std::size_t city) {
          facilities.push_back(narrow_index(
              city, "write_snapshot: facility city id exceeds 32 bits"));
        });
    sections.add_array<std::uint32_t>(SectionKind::kLinkA, a);
    sections.add_array<std::uint32_t>(SectionKind::kLinkB, b);
    sections.add_array<std::uint8_t>(SectionKind::kLinkType, type);
    sections.add_array<double>(SectionKind::kLinkCapacity, capacity);
    sections.add_array<std::uint32_t>(SectionKind::kLinkFacilityBegin,
                                      fac_begin);
    sections.add_array<std::uint32_t>(SectionKind::kLinkFacilities,
                                      facilities);
  }

  // AS table.
  {
    std::vector<std::int32_t> tier;
    std::vector<std::uint32_t> region, pop_begin, pops, name_begin;
    std::vector<double> centroid;
    std::vector<std::uint8_t> has_geo;
    std::string names;
    tier.reserve(n);
    region.reserve(n);
    centroid.reserve(2 * n);
    has_geo.reserve(n);
    std::vector<std::span<const std::size_t>> pop_rows;
    std::vector<std::string_view> name_rows;
    pop_rows.reserve(n);
    name_rows.reserve(n);
    for (AsId as = 0; as < n; ++as) {
      const topology::AsInfo& info = graph.info(as);
      tier.push_back(info.tier);
      region.push_back(narrow_index(
          info.region, "write_snapshot: AS region index exceeds 32 bits"));
      centroid.push_back(info.centroid.lat_deg);
      centroid.push_back(info.centroid.lng_deg);
      has_geo.push_back(info.has_geo ? 1 : 0);
      pop_rows.push_back(info.pops);
      name_rows.push_back(info.name);
    }
    build_jagged<std::span<const std::size_t>>(
        pop_rows, pop_begin, [&](std::size_t city) {
          pops.push_back(narrow_index(
              city, "write_snapshot: PoP city id exceeds 32 bits"));
        });
    build_jagged<std::string_view>(name_rows, name_begin,
                                   [&](char c) { names.push_back(c); });
    sections.add_array<std::int32_t>(SectionKind::kAsTier, tier);
    sections.add_array<std::uint32_t>(SectionKind::kAsRegion, region);
    sections.add_array<double>(SectionKind::kAsCentroid, centroid);
    sections.add_array<std::uint8_t>(SectionKind::kAsHasGeo, has_geo);
    sections.add_array<std::uint32_t>(SectionKind::kAsPopBegin, pop_begin);
    sections.add_array<std::uint32_t>(SectionKind::kAsPops, pops);
    sections.add_array<std::uint32_t>(SectionKind::kAsNameBegin, name_begin);
    sections.add(SectionKind::kAsNames, names.data(), names.size());
  }

  // World tables.
  {
    std::vector<double> location, center, radius;
    std::vector<std::uint32_t> city_region, city_name_begin, region_name_begin,
        region_city_begin, region_city_ids;
    std::string city_names, region_names;
    std::vector<std::string_view> city_name_rows, region_name_rows;
    std::vector<std::span<const std::size_t>> region_city_rows;
    for (const geo::City& city : topo.world.cities()) {
      location.push_back(city.location.lat_deg);
      location.push_back(city.location.lng_deg);
      city_region.push_back(narrow_index(
          city.region, "write_snapshot: city region index exceeds 32 bits"));
      city_name_rows.push_back(city.name);
    }
    for (const geo::Region& region : topo.world.regions()) {
      center.push_back(region.center.lat_deg);
      center.push_back(region.center.lng_deg);
      radius.push_back(region.radius_km);
      region_name_rows.push_back(region.name);
      region_city_rows.push_back(region.city_ids);
    }
    build_jagged<std::string_view>(city_name_rows, city_name_begin,
                                   [&](char c) { city_names.push_back(c); });
    build_jagged<std::string_view>(region_name_rows, region_name_begin,
                                   [&](char c) { region_names.push_back(c); });
    build_jagged<std::span<const std::size_t>>(
        region_city_rows, region_city_begin, [&](std::size_t city) {
          region_city_ids.push_back(narrow_index(
              city, "write_snapshot: region city id exceeds 32 bits"));
        });
    sections.add_array<double>(SectionKind::kCityLocation, location);
    sections.add_array<std::uint32_t>(SectionKind::kCityRegion, city_region);
    sections.add_array<std::uint32_t>(SectionKind::kCityNameBegin,
                                      city_name_begin);
    sections.add(SectionKind::kCityNames, city_names.data(),
                 city_names.size());
    sections.add_array<double>(SectionKind::kRegionCenter, center);
    sections.add_array<double>(SectionKind::kRegionRadius, radius);
    sections.add_array<std::uint32_t>(SectionKind::kRegionNameBegin,
                                      region_name_begin);
    sections.add(SectionKind::kRegionNames, region_names.data(),
                 region_names.size());
    sections.add_array<std::uint32_t>(SectionKind::kRegionCityBegin,
                                      region_city_begin);
    sections.add_array<std::uint32_t>(SectionKind::kRegionCityIds,
                                      region_city_ids);
  }

  // Tier membership lists.
  sections.add_array<AsId>(SectionKind::kTier1, topo.tier1);
  sections.add_array<AsId>(SectionKind::kTier2, topo.tier2);
  sections.add_array<AsId>(SectionKind::kTier3, topo.tier3);

  // Assemble header + section table + payload.
  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.endian_probe = kEndianProbe;
  header.num_ases = n;
  header.num_links = num_links;
  header.num_cities = num_cities;
  header.num_regions = num_regions;
  header.section_count = sections.records().size();
  header.section_table_offset = sizeof(FileHeader);

  std::vector<SectionRecord> table = sections.records();
  std::size_t payload_base =
      sizeof(FileHeader) + table.size() * sizeof(SectionRecord);
  while (payload_base % kSectionAlignment != 0) {
    ++payload_base;
  }
  for (SectionRecord& record : table) {
    record.offset += payload_base;
  }
  header.file_bytes = payload_base + sections.payload().size();

  // Per-process temp sibling: concurrent writers of the same destination
  // must not interleave in one shared ".tmp" (last rename wins cleanly).
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError("write_snapshot: cannot open '" + tmp +
                          "' for writing");
    }
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(table.data()),
              static_cast<std::streamsize>(table.size() *
                                           sizeof(SectionRecord)));
    const std::size_t written =
        sizeof(FileHeader) + table.size() * sizeof(SectionRecord);
    for (std::size_t i = written; i < payload_base; ++i) {
      out.put('\0');
    }
    out.write(reinterpret_cast<const char*>(sections.payload().data()),
              static_cast<std::streamsize>(sections.payload().size()));
    if (!out) {
      throw SnapshotError("write_snapshot: write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("write_snapshot: cannot rename '" + tmp + "' to '" +
                        path + "'");
  }
}

}  // namespace panagree::storage
