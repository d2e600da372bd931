/**
 * @file
 * File-identity check shared by every guard that keeps an output path
 * from clobbering an input (or another output) of the same run.
 */

#ifndef MITHRIL_COMMON_FILE_UTIL_HH
#define MITHRIL_COMMON_FILE_UTIL_HH

#include <sys/stat.h>

#include <string>

namespace mithril
{

/** True when two paths name the same file: same device and inode
 *  when both exist (seeing through relative vs absolute spellings,
 *  symlinks and hardlinks), else equal path strings. */
inline bool
sameFile(const std::string &a, const std::string &b)
{
    struct stat sa, sb;
    if (::stat(a.c_str(), &sa) != 0 || ::stat(b.c_str(), &sb) != 0)
        return a == b;
    return sa.st_dev == sb.st_dev && sa.st_ino == sb.st_ino;
}

} // namespace mithril

#endif // MITHRIL_COMMON_FILE_UTIL_HH
