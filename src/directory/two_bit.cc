#include "directory/two_bit.hh"

#include "common/logging.hh"

namespace dirsim
{

const char *
toString(TwoBitState state)
{
    switch (state) {
      case TwoBitState::NotCached:
        return "not-cached";
      case TwoBitState::CleanOne:
        return "clean-one";
      case TwoBitState::CleanMany:
        return "clean-many";
      case TwoBitState::DirtyOne:
        return "dirty-one";
    }
    panic("unknown TwoBitState ", static_cast<int>(state));
}

TwoBitDirectory::TwoBitDirectory(std::uint64_t block_count)
    : states(block_count, TwoBitState::NotCached)
{
}

TwoBitState
TwoBitDirectory::state(BlockNum block) const
{
    return block < states.size() ? states[block]
                                 : TwoBitState::NotCached;
}

void
TwoBitDirectory::setState(BlockNum block, TwoBitState state_arg)
{
    panicIfNot(block < states.size(),
               "TwoBitDirectory: block ", block,
               " outside the arena of ", states.size(), " blocks");
    states[block] = state_arg;
}

void
TwoBitDirectory::addCleanCopy(BlockNum block)
{
    switch (state(block)) {
      case TwoBitState::NotCached:
        setState(block, TwoBitState::CleanOne);
        break;
      case TwoBitState::CleanOne:
      case TwoBitState::CleanMany:
        setState(block, TwoBitState::CleanMany);
        break;
      case TwoBitState::DirtyOne:
        panic("addCleanCopy on a dirty block; flush it first");
    }
}

void
TwoBitDirectory::makeDirty(BlockNum block)
{
    setState(block, TwoBitState::DirtyOne);
}

void
TwoBitDirectory::makeUncached(BlockNum block)
{
    setState(block, TwoBitState::NotCached);
}

} // namespace dirsim
