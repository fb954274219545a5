/**
 * @file
 * Persistence for the attacker's fingerprint database.
 *
 * Section 4: "Probable Cause stores system-level fingerprints in a
 * database equal to the size of the fingerprinted region of
 * memory... it is possible to reduce the storage requirement by
 * only tracking the fast decaying bits (approximately, 1% of the
 * bits in a memory)." The on-disk format here does exactly that:
 * fingerprints are stored as sparse position lists, so a 32 KB
 * chip's fingerprint costs ~10 KB instead of 32 KB, and scales with
 * the error budget rather than the memory size.
 *
 * Format v3 (little-endian, written by saveStore) is the
 * memory-mappable layout specified byte-for-byte in
 * core/pcdb_format.hh: a fixed 104-byte header with explicit section
 * offsets, a fixed-stride record table, then contiguous signature /
 * position / label arenas and the serialized per-band LSH index.
 * MappedStore (core/mapped_store) queries a v3 file in place without
 * loading it.
 *
 * Format v2 (read only; no writer remains):
 *   magic "PCDB", u32 version = 2,
 *   u32 minhash hashes (k), u32 minhash bands, u64 minhash seed,
 *   u64 record count, then per record:
 *     u32 label length, label bytes,
 *     u32 sources, u64 universe bits,
 *     u64 position count, u32 positions[],
 *     u32 signature[k]            (MinHash signature, core/minhash)
 *
 * Format v1 (read only) is v2 without the minhash header fields
 * and without the per-record signatures.
 *
 * loadStore() accepts v1, v2 and v3 with identical resulting
 * stores: v1 files get signatures recomputed on load, and v3's
 * extra LSH trailer is validated and then rebuilt from the
 * signatures. Every record of a file must span one universe width;
 * a file mixing widths is refused.
 *
 * Loading is recoverable: malformed input produces a LoadResult
 * carrying an error string instead of killing the process, so a
 * long-running attacker service can survive a damaged database file.
 * Callers that do want to die on bad input (the pcause CLI) handle
 * the error at the call site.
 */

#ifndef PCAUSE_CORE_SERIALIZE_HH
#define PCAUSE_CORE_SERIALIZE_HH

#include <iosfwd>
#include <optional>
#include <string>

#include "core/store.hh"

namespace pcause
{

/**
 * Outcome of a recoverable load: either the value or a
 * human-readable reason it could not be produced.
 */
template <typename T>
struct LoadResult
{
    /** The loaded value; nullopt when loading failed. */
    std::optional<T> value;

    /** Failure reason; empty on success. */
    std::string error;

    /** True when the load succeeded. */
    explicit operator bool() const { return value.has_value(); }

    /** The loaded value (must have succeeded). */
    T &operator*() { return *value; }
    const T &operator*() const { return *value; }
    T *operator->() { return &*value; }
    const T *operator->() const { return &*value; }
};

using StoreLoadResult = LoadResult<FingerprintStore>;

/** Serialize @p store (its own index parameters, signatures, and
 *  LSH buckets) as a mmap-able v3 file. Returns false on IO
 *  failure. */
bool saveStore(const FingerprintStore &store, std::ostream &out);

/** Serialize @p store to @p path. Returns false on IO failure. */
bool saveStore(const FingerprintStore &store, const std::string &path);

/**
 * Crash-safe saveStore: the v3 image is written to a temp file in
 * the same directory, fsynced, atomically renamed over @p path, and
 * the parent directory fsynced — a reader (or a recovery after
 * kill -9 at any instruction) sees either the complete old file or
 * the complete new one, never a torn in-place truncation. False on
 * failure with a reason in @p error (when non-null); the target is
 * left untouched on every failure path.
 */
bool saveStoreDurable(const FingerprintStore &store,
                      const std::string &path,
                      std::string *error = nullptr);

/**
 * Load an indexed FingerprintStore: v2/v3 files restore the stored
 * index parameters and per-record signatures without rehashing; v1
 * files get signatures recomputed under default MinHashParams.
 * Malformed, truncated, mixed-width or version-incompatible input
 * yields a failed result with an error string — never a process
 * exit.
 */
StoreLoadResult loadStore(std::istream &in);

/** Load a FingerprintStore from @p path. */
StoreLoadResult loadStore(const std::string &path);

/**
 * On-disk size estimate in bytes for a v3 record of @p weight
 * volatile cells, a @p label_len-byte label, and a
 * @p signature_hashes-entry MinHash signature (record-table entry
 * plus its arena shares; the per-band LSH trailer adds ~12 bytes per
 * record on top) — the "1% of bits" storage claim made measurable.
 */
std::size_t recordDiskSize(std::size_t weight, std::size_t label_len,
                           std::size_t signature_hashes =
                               MinHashParams{}.numHashes);

/**
 * Persist a raw bit vector (approximate outputs, exact patterns)
 * as a dense dump: magic "PCBV", u32 version, u64 bit count, bytes.
 * Returns false on IO failure.
 */
bool saveBitVec(const BitVec &bits, const std::string &path);

/** Load a bit vector written by saveBitVec. Fatal on bad input. */
BitVec loadBitVec(const std::string &path);

} // namespace pcause

#endif // PCAUSE_CORE_SERIALIZE_HH
