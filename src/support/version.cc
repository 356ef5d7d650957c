#include "src/support/version.h"

#include "src/support/fingerprint.h"

namespace cssame::support {

const char* versionString() { return "0.5.0"; }

const std::string& buildFingerprint() {
  // __DATE__/__TIME__ expand when this translation unit is compiled, and
  // src/CMakeLists.txt recompiles it whenever any library file changes,
  // so such a rebuild gets a fresh fingerprint; a binary's own
  // fingerprint never changes between runs.
  static const std::string fp = [] {
    Fingerprinter f;
    f.mixBytes(versionString());
#if defined(__VERSION__)
    f.mixBytes(__VERSION__);
#endif
    f.mixBytes(__DATE__ " " __TIME__);
#if defined(NDEBUG)
    f.mix(1);
#else
    f.mix(0);
#endif
    return toHex(f.digest());
  }();
  return fp;
}

std::string versionLine(const char* tool) {
  return std::string(tool) + " " + versionString() + " (build " +
         buildFingerprint() + ")";
}

}  // namespace cssame::support
