/**
 * @file
 * Live grid progress on stderr.
 *
 * ProgressHud turns the runner's per-cell GridProgress callbacks into
 * a single self-rewriting status line: cells done, the cell that just
 * finished, aggregate refs/s, and an ETA from the planned-vs-completed
 * reference counts. It is opt-in (DIRSIM_PROGRESS=1) and writes only
 * to stderr, so machine-readable stdout (JSONL, report text) stays
 * clean.
 *
 * @code
 *   ProgressHud hud;
 *   RunnerConfig config; // jobs 0: DIRSIM_JOBS, else every core
 *   if (ProgressHud::enabledFromEnvironment())
 *       config.onCellComplete = hud.callback();
 *   GridResult grid = ExperimentRunner(config).run(
 *       parseSchemes(paperSchemes()), traces);
 *   hud.finish(); // newline-terminate the status line, if any
 * @endcode
 *
 * The callback the HUD hands out is safe under the runner's progress
 * serialization guarantee (calls never overlap), and finish() is
 * idempotent.
 */

#ifndef DIRSIM_OBS_PROGRESS_HH
#define DIRSIM_OBS_PROGRESS_HH

#include <string>

#include "sim/runner.hh"

namespace dirsim
{

/** One-line stderr HUD over runner progress callbacks. */
class ProgressHud
{
  public:
    ProgressHud() = default;
    ~ProgressHud() { finish(); }

    ProgressHud(const ProgressHud &) = delete;
    ProgressHud &operator=(const ProgressHud &) = delete;

    /** True when DIRSIM_PROGRESS is set to a non-zero value. */
    static bool enabledFromEnvironment();

    /**
     * A ProgressCallback that rewrites this HUD's status line. The
     * HUD must outlive any runner using the callback.
     */
    ProgressCallback callback();

    /**
     * Terminate the status line with a newline so later stderr
     * output starts clean. No-op when nothing was drawn.
     */
    void finish();

    /** The status line for @p progress (exposed for tests). */
    static std::string renderLine(const GridProgress &progress);

  private:
    void draw(const GridProgress &progress);

    /** Width of the longest line drawn, for blank-padding rewrites. */
    std::size_t drawnWidth = 0;
    bool drawn = false;
};

} // namespace dirsim

#endif // DIRSIM_OBS_PROGRESS_HH
