// On-disk layout of .pansnap topology snapshots, format version 1.
//
// A snapshot freezes everything the analyses need to start without
// re-parsing or re-embedding a relationship graph: the CSR arrays of a
// topology::CompiledTopology (served zero-copy out of the mapped file),
// the Graph's AS/link metadata (names, tiers, PoPs, centroids, facilities,
// capacities), the geo::World city/region tables behind the geodistance
// model, and the tier membership lists of a GeneratedTopology.
//
// Layout: a fixed FileHeader, a section table, then the section payloads.
// Every section payload is 8-byte aligned and its byte length recorded, so
// a reader can bounds-check before touching anything. Numeric arrays are
// stored in host (little-endian) byte order - the header carries an
// endianness probe and readers reject foreign files instead of byte
// swapping. Variable-length per-element data (names, PoP lists, facility
// lists) is stored as a begin-offset array of n + 1 entries plus one
// concatenated payload blob, the same shape as the CSR rows.
//
// Versioning policy: the format is rewrite-on-change. Any layout change
// bumps kFormatVersion, and readers reject every version but their own -
// snapshots are cheap, derived artifacts (recompile with panagree-compile),
// so there is no migration path to maintain. Within a version, readers
// skip section kinds they do not read (every record is still bounds- and
// duplicate-checked), so files that carry retired kinds keep opening.
// Kinds 60-62 and 70-72 are retired and never reused (see SectionKind).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "panagree/topology/compiled.hpp"
#include "panagree/util/error.hpp"

namespace panagree::storage {

/// Malformed or foreign snapshot file (bad magic, wrong version, truncated
/// or inconsistent sections). A ParseError: snapshots are external input.
class SnapshotError : public util::ParseError {
 public:
  using util::ParseError::ParseError;
};

inline constexpr char kMagic[8] = {'P', 'A', 'N', 'S', 'N', 'A', 'P', '\0'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// Written as a u32; reads back differently on a foreign-endian host.
inline constexpr std::uint32_t kEndianProbe = 0x50414E53;  // "SNAP" in LE
inline constexpr std::size_t kSectionAlignment = 8;

struct FileHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t endian_probe = 0;
  /// Total file size; a shorter mapping means truncation.
  std::uint64_t file_bytes = 0;
  std::uint64_t num_ases = 0;
  std::uint64_t num_links = 0;
  std::uint64_t num_cities = 0;
  std::uint64_t num_regions = 0;
  std::uint64_t section_count = 0;
  /// Offset of the SectionRecord table (sections follow it).
  std::uint64_t section_table_offset = 0;
};
static_assert(std::is_trivially_copyable_v<FileHeader>);
static_assert(sizeof(FileHeader) == 72);

/// Section identifiers. Values are part of the format - append only.
enum class SectionKind : std::uint32_t {
  // CSR arrays of the CompiledTopology (zero-copy on read).
  kRowStart = 1,       // u32[num_ases + 1]
  kProvidersEnd = 2,   // u32[num_ases]
  kPeersEnd = 3,       // u32[num_ases]
  kEntries = 4,        // CompiledTopology::Entry[2 * num_links]
  // Link table.
  kLinkA = 10,             // u32[num_links]
  kLinkB = 11,             // u32[num_links]
  kLinkType = 12,          // u8[num_links] (LinkType values)
  kLinkCapacity = 13,      // f64[num_links]
  kLinkFacilityBegin = 14, // u32[num_links + 1]
  kLinkFacilities = 15,    // u32[...] city ids, concatenated
  // AS table.
  kAsTier = 20,      // i32[num_ases]
  kAsRegion = 21,    // u32[num_ases]
  kAsCentroid = 22,  // f64[2 * num_ases] (lat, lng pairs)
  kAsHasGeo = 23,    // u8[num_ases]
  kAsPopBegin = 24,  // u32[num_ases + 1]
  kAsPops = 25,      // u32[...] city ids, concatenated
  kAsNameBegin = 26, // u32[num_ases + 1]
  kAsNames = 27,     // char[...] names, concatenated (no terminators)
  // geo::World tables.
  kCityLocation = 30,   // f64[2 * num_cities] (lat, lng pairs)
  kCityRegion = 31,     // u32[num_cities]
  kCityNameBegin = 32,  // u32[num_cities + 1]
  kCityNames = 33,      // char[...]
  kRegionCenter = 34,   // f64[2 * num_regions] (lat, lng pairs)
  kRegionRadius = 35,   // f64[num_regions]
  kRegionNameBegin = 36,// u32[num_regions + 1]
  kRegionNames = 37,    // char[...]
  kRegionCityBegin = 38,// u32[num_regions + 1]
  kRegionCityIds = 39,  // u32[...]
  // GeneratedTopology tier membership lists.
  kTier1 = 50,  // u32[...]
  kTier2 = 51,  // u32[...]
  kTier3 = 52,  // u32[...]
  // Retired, never reused: 60-62 held a sharded-serving plan
  // (kShardSourceIds, kShardSourceBegin, kShardRowRanges) and 70-72 a
  // primed path baseline (kBaselineGrcCounts, kBaselinePathBegin,
  // kBaselinePaths).
};

struct SectionRecord {
  std::uint32_t kind = 0;  ///< SectionKind
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  ///< absolute file offset, 8-byte aligned
  std::uint64_t bytes = 0;   ///< payload length (unpadded)
};
static_assert(std::is_trivially_copyable_v<SectionRecord>);
static_assert(sizeof(SectionRecord) == 24);

// kEntries is written field-by-field into zeroed storage and read back by
// casting the mapped bytes, so the in-memory layout is part of the format.
using TopoEntry = topology::CompiledTopology::Entry;
static_assert(std::is_trivially_copyable_v<TopoEntry>);
static_assert(sizeof(TopoEntry) == 12 && alignof(TopoEntry) == 4);
static_assert(offsetof(TopoEntry, neighbor) == 0);
static_assert(offsetof(TopoEntry, link) == 4);
static_assert(offsetof(TopoEntry, role) == 8);
// Role/type byte values are part of the format as well.
static_assert(static_cast<int>(topology::NeighborRole::kProvider) == 0 &&
              static_cast<int>(topology::NeighborRole::kPeer) == 1 &&
              static_cast<int>(topology::NeighborRole::kCustomer) == 2);
static_assert(static_cast<int>(topology::LinkType::kProviderCustomer) == 0 &&
              static_cast<int>(topology::LinkType::kPeering) == 1);

}  // namespace panagree::storage
