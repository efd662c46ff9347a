// Fixture: a test that takes its directory from scratchDir() instead of
// a fixed /tmp/ path. Under forbid-tmp-path this file must produce zero
// findings: /tmp/ in a comment is prose, and literals such as "tmp/x"
// or "/tmpfs" are not /tmp/ paths.
#include <string>

std::string scratchDir();

std::string
ownedScratchFile()
{
    return scratchDir() + "/x.bin" + std::string("tmp/x") + "/tmpfs";
}
