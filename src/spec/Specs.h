//===- Specs.h - Specs for the paper's benchmark families -------*- C++ -*-===//
//
// Every state is a value type over one std::vector (a deque is a vector
// with a head offset, a set a sorted vector), so the checker's per-depth
// assign() is a copy into capacity the search already owns. hash() folds
// the live contents front to back (the sets in ascending order), whatever
// the head offset, so equal contents give equal memo keys.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SPEC_SPECS_H
#define DFENCE_SPEC_SPECS_H

#include "spec/Spec.h"

#include <vector>

namespace dfence::spec {

/// Which end of the deque a consuming operation removes from.
enum class DequeEnd : uint8_t { Head, Tail };

/// Work-stealing queue spec: a deque of tasks. put(v) appends at the
/// tail; take()/steal() remove from a configurable end (EMPTY when
/// empty). The Chase-Lev/Anchor shape is take=Tail, steal=Head; the LIFO
/// WSQ has both at the tail; the FIFO WSQ has both at the head. Return
/// values of put are ignored.
class WsqSpec : public SpecState {
public:
  WsqSpec(DequeEnd TakeEnd, DequeEnd StealEnd)
      : TakeEnd(TakeEnd), StealEnd(StealEnd) {}

  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  /// Default deque shape: take from the tail, steal from the head.
  static SpecFactory factory();
  static SpecFactory factory(DequeEnd TakeEnd, DequeEnd StealEnd);

private:
  DequeEnd TakeEnd;
  DequeEnd StealEnd;
  std::vector<vm::Word> Items; ///< [Head, size()) is the deque.
  size_t Head = 0;
};

/// FIFO queue spec: enqueue(v)/dequeue() with EMPTY on empty.
class QueueSpec : public SpecState {
public:
  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  static SpecFactory factory();

private:
  std::vector<vm::Word> Items; ///< [Head, size()) is the queue.
  size_t Head = 0;
};

/// Sorted-set spec: add(v)->1 if inserted else 0; remove(v)->1 if removed
/// else 0; contains(v)->0/1.
class SetSpec : public SpecState {
public:
  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  static SpecFactory factory();

private:
  std::vector<vm::Word> Items; ///< Sorted, distinct.
};

/// Stack spec: push(v)/pop() with EMPTY on empty (Treiber-style stacks).
class StackSpec : public SpecState {
public:
  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  static SpecFactory factory();

private:
  std::vector<vm::Word> Items; ///< Top at the back.
};

/// Shared-counter spec: inc() returns the new counter value. Mutual-
/// exclusion failures show up as duplicate or skipped return values,
/// which no sequentialization can explain.
class CounterSpec : public SpecState {
public:
  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  static SpecFactory factory();

private:
  vm::Word Value = 0;
};

/// Allocator spec: malloc(sz) may return any address that is non-null and
/// not currently live (freshness/uniqueness is the linearizable behaviour
/// of a correct allocator); free(p) requires p to be live.
class AllocatorSpec : public SpecState {
public:
  bool apply(const vm::OpRecord &Op) override;
  uint64_t hash() const override;
  std::unique_ptr<SpecState> clone() const override;
  void assign(const SpecState &From) override;

  static SpecFactory factory();

private:
  std::vector<vm::Word> Live; ///< Sorted, distinct.
};

} // namespace dfence::spec

#endif // DFENCE_SPEC_SPECS_H
