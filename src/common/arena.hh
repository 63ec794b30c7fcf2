/**
 * @file
 * The per-block and per-line arenas of the cache models and the
 * directories: flat arrays sized once, at construction, whose
 * all-zero bytes are the empty state of every structure kept in one.
 */

#ifndef DIRSIM_COMMON_ARENA_HH
#define DIRSIM_COMMON_ARENA_HH

#include <cstddef>
#include <cstdlib>
#include <memory>

#include "common/logging.hh"

namespace dirsim
{

/** Releases a calloc'd arena. */
struct FreeDeleter
{
    void operator()(void *p) const { std::free(p); }
};

/** A per-block or per-line arena (callocArena()). */
template <typename T>
using CallocArena = std::unique_ptr<T[], FreeDeleter>;

/**
 * @p count zeroed Ts from calloc rather than a std::vector: a grid at
 * large N builds one arena per cache per cell, and zero-filling them
 * all eagerly costs more than the simulation when each cache touches
 * a sliver of its arena. calloc leaves untouched pages on the
 * kernel's zero page, so memory and setup follow what a cache uses.
 */
template <typename T>
CallocArena<T>
callocArena(std::size_t count)
{
    auto *arena =
        static_cast<T *>(std::calloc(count > 0 ? count : 1, sizeof(T)));
    fatalIf(arena == nullptr, "cannot allocate an arena of ", count,
            " entries");
    return CallocArena<T>(arena);
}

} // namespace dirsim

#endif // DIRSIM_COMMON_ARENA_HH
