/**
 * @file
 * Per-test scratch directories.
 *
 * gtest_discover_tests runs every test as its own process and
 * `ctest -j` runs those processes side by side, so a fixed path under
 * /tmp is shared state between tests. Every test that touches disk
 * takes its directory from scratchDir() instead: the name carries the
 * suite and the test, so no two tests share one. The name carries no
 * pid on purpose: I/O fault draws are keyed by the artifact path
 * (support/io_env), so a test's injected fault schedule is only
 * reproducible if its paths are the same on every run.
 * Directories are removed at process exit unless a test failed; a
 * failing test's files stay behind as evidence.
 */
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace tlp::test {

namespace detail {

/** Directories handed out in this process. Destroyed before gtest's
 *  UnitTest singleton (constructed after it), so the verdict is
 *  still readable here. */
struct ScratchRegistry
{
    std::vector<std::string> dirs;

    ScratchRegistry() = default;
    ScratchRegistry(const ScratchRegistry &) = delete;
    ScratchRegistry &operator=(const ScratchRegistry &) = delete;

    ~ScratchRegistry()
    {
        if (::testing::UnitTest::GetInstance()->Failed())
            return;
        std::error_code ec;
        for (const auto &dir : dirs)
            std::filesystem::remove_all(dir, ec);
    }
};

} // namespace detail

/**
 * A fresh, empty directory owned by the running test:
 * `::testing::TempDir()` + suite + test name, plus "_<tag>" when
 * @p tag is non-empty, so one test can hold several. Must be called
 * while a test is running.
 */
inline std::string
scratchDir(const std::string &tag = "")
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "." + info->name();
    // Parameterized tests carry '/' in both names.
    std::replace(name.begin(), name.end(), '/', '_');
    std::string dir = ::testing::TempDir() + "tlp_" + name;
    if (!tag.empty())
        dir += "_" + tag;

    static detail::ScratchRegistry registry;
    if (std::find(registry.dirs.begin(), registry.dirs.end(), dir) ==
        registry.dirs.end()) {
        registry.dirs.push_back(dir);
    }
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace tlp::test
