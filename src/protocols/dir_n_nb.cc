#include "protocols/dir_n_nb.hh"

namespace dirsim
{

template class DirectoryProtocol<DirNNB>;

DirNNB::DirNNB(unsigned num_caches_arg, const BlockSpace &blocks_arg,
               const CacheFactory &factory)
    : DirectoryProtocol(num_caches_arg, blocks_arg, factory)
{
}

} // namespace dirsim
