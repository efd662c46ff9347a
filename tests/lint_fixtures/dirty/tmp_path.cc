// Fixture: a test that writes to a fixed /tmp/ path. The literal below
// must fire the tmp-path rule (the manifest scopes forbid-tmp-path over
// this TU); the mention in this comment must not.
#include <string>

std::string
sharedScratchFile()
{
    return "/tmp/tlp_shared_between_tests.bin";
}
