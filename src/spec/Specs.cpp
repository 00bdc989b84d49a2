//===- Specs.cpp ----------------------------------------------------------===//

#include "spec/Specs.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <typeinfo>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::OpRecord;
using vm::Word;

SpecState::~SpecState() = default;

namespace {

/// The \p From of an assign(), checked to be of the assignee's type.
template <typename T> const T &sameType(const SpecState &From) {
  assert(typeid(From) == typeid(T) && "assign across spec types");
  return static_cast<const T &>(From);
}

/// Sorted-vector set operations (ascending, distinct).
bool sortedInsert(std::vector<Word> &V, Word X) {
  auto It = std::lower_bound(V.begin(), V.end(), X);
  if (It != V.end() && *It == X)
    return false;
  V.insert(It, X);
  return true;
}

bool sortedErase(std::vector<Word> &V, Word X) {
  auto It = std::lower_bound(V.begin(), V.end(), X);
  if (It == V.end() || *It != X)
    return false;
  V.erase(It);
  return true;
}

uint64_t hashWords(uint64_t Seed, const Word *B, const Word *E) {
  for (; B != E; ++B)
    Seed = hashCombine(Seed, *B);
  return Seed;
}

} // namespace

//===----------------------------------------------------------------------===//
// WsqSpec
//===----------------------------------------------------------------------===//

bool WsqSpec::apply(const OpRecord &Op) {
  if (Op.Func == "put") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  DequeEnd End;
  if (Op.Func == "take")
    End = TakeEnd;
  else if (Op.Func == "steal")
    End = StealEnd;
  else
    return false; // Unknown operation.
  if (Head == Items.size())
    return Op.Ret == EmptyVal;
  Word Expected = End == DequeEnd::Tail ? Items.back() : Items[Head];
  if (Op.Ret != Expected)
    return false;
  if (End == DequeEnd::Tail)
    Items.pop_back();
  else
    ++Head;
  return true;
}

uint64_t WsqSpec::hash() const {
  return hashWords(0x57535121, Items.data() + Head,
                   Items.data() + Items.size());
}

std::unique_ptr<SpecState> WsqSpec::clone() const {
  return std::make_unique<WsqSpec>(*this);
}

void WsqSpec::assign(const SpecState &From) {
  const WsqSpec &O = sameType<WsqSpec>(From);
  TakeEnd = O.TakeEnd;
  StealEnd = O.StealEnd;
  Items.assign(O.Items.begin() + O.Head, O.Items.end());
  Head = 0;
}

SpecFactory WsqSpec::factory() {
  return factory(DequeEnd::Tail, DequeEnd::Head);
}

SpecFactory WsqSpec::factory(DequeEnd TakeEnd, DequeEnd StealEnd) {
  return [TakeEnd, StealEnd] {
    return std::make_unique<WsqSpec>(TakeEnd, StealEnd);
  };
}

//===----------------------------------------------------------------------===//
// QueueSpec
//===----------------------------------------------------------------------===//

bool QueueSpec::apply(const OpRecord &Op) {
  if (Op.Func == "enqueue") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  if (Op.Func == "dequeue") {
    if (Head == Items.size())
      return Op.Ret == EmptyVal;
    if (Op.Ret != Items[Head])
      return false;
    ++Head;
    return true;
  }
  return false;
}

uint64_t QueueSpec::hash() const {
  return hashWords(0x51554555, Items.data() + Head,
                   Items.data() + Items.size());
}

std::unique_ptr<SpecState> QueueSpec::clone() const {
  return std::make_unique<QueueSpec>(*this);
}

void QueueSpec::assign(const SpecState &From) {
  const QueueSpec &O = sameType<QueueSpec>(From);
  Items.assign(O.Items.begin() + O.Head, O.Items.end());
  Head = 0;
}

SpecFactory QueueSpec::factory() {
  return [] { return std::make_unique<QueueSpec>(); };
}

//===----------------------------------------------------------------------===//
// SetSpec
//===----------------------------------------------------------------------===//

bool SetSpec::apply(const OpRecord &Op) {
  if (Op.Args.size() != 1)
    return false;
  Word V = Op.Args[0];
  if (Op.Func == "add")
    return Op.Ret == static_cast<Word>(sortedInsert(Items, V));
  if (Op.Func == "remove")
    return Op.Ret == static_cast<Word>(sortedErase(Items, V));
  if (Op.Func == "contains")
    return Op.Ret == static_cast<Word>(
                         std::binary_search(Items.begin(), Items.end(), V));
  return false;
}

uint64_t SetSpec::hash() const {
  return hashWords(0x53455421, Items.data(), Items.data() + Items.size());
}

std::unique_ptr<SpecState> SetSpec::clone() const {
  return std::make_unique<SetSpec>(*this);
}

void SetSpec::assign(const SpecState &From) {
  Items = sameType<SetSpec>(From).Items;
}

SpecFactory SetSpec::factory() {
  return [] { return std::make_unique<SetSpec>(); };
}

//===----------------------------------------------------------------------===//
// StackSpec
//===----------------------------------------------------------------------===//

bool StackSpec::apply(const OpRecord &Op) {
  if (Op.Func == "push") {
    if (Op.Args.size() != 1)
      return false;
    Items.push_back(Op.Args[0]);
    return true;
  }
  if (Op.Func == "pop") {
    if (Items.empty())
      return Op.Ret == EmptyVal;
    if (Op.Ret != Items.back())
      return false;
    Items.pop_back();
    return true;
  }
  return false;
}

uint64_t StackSpec::hash() const {
  return hashWords(0x53544b21, Items.data(), Items.data() + Items.size());
}

std::unique_ptr<SpecState> StackSpec::clone() const {
  return std::make_unique<StackSpec>(*this);
}

void StackSpec::assign(const SpecState &From) {
  Items = sameType<StackSpec>(From).Items;
}

SpecFactory StackSpec::factory() {
  return [] { return std::make_unique<StackSpec>(); };
}

//===----------------------------------------------------------------------===//
// CounterSpec
//===----------------------------------------------------------------------===//

bool CounterSpec::apply(const OpRecord &Op) {
  if (Op.Func == "inc") {
    if (Op.Ret != Value + 1)
      return false;
    ++Value;
    return true;
  }
  if (Op.Func == "get")
    return Op.Ret == Value;
  return false;
}

uint64_t CounterSpec::hash() const {
  return hashCombine(0x434f554e, Value);
}

std::unique_ptr<SpecState> CounterSpec::clone() const {
  return std::make_unique<CounterSpec>(*this);
}

void CounterSpec::assign(const SpecState &From) {
  Value = sameType<CounterSpec>(From).Value;
}

SpecFactory CounterSpec::factory() {
  return [] { return std::make_unique<CounterSpec>(); };
}

//===----------------------------------------------------------------------===//
// AllocatorSpec
//===----------------------------------------------------------------------===//

bool AllocatorSpec::apply(const OpRecord &Op) {
  if (Op.Func == "malloc" || Op.Func == "alloc") {
    if (Op.Ret == 0)
      return false; // Our benchmarks never exhaust memory.
    return sortedInsert(Live, Op.Ret); // Must be fresh among live blocks.
  }
  if (Op.Func == "free" || Op.Func == "release")
    return !Op.Args.empty() && sortedErase(Live, Op.Args[0]);
  return false;
}

uint64_t AllocatorSpec::hash() const {
  return hashWords(0x414c4c4f, Live.data(), Live.data() + Live.size());
}

std::unique_ptr<SpecState> AllocatorSpec::clone() const {
  return std::make_unique<AllocatorSpec>(*this);
}

void AllocatorSpec::assign(const SpecState &From) {
  Live = sameType<AllocatorSpec>(From).Live;
}

SpecFactory AllocatorSpec::factory() {
  return [] { return std::make_unique<AllocatorSpec>(); };
}
