// Clang thread-safety analysis annotations.
//
// These macros expand to Clang `capability` attributes so that a build with
// `-Wthread-safety` (CMake option MEDES_THREAD_SAFETY) verifies the locking
// discipline at compile time: every field tagged GUARDED_BY may only be
// touched while its mutex is held, and every function tagged REQUIRES may
// only be called with the named capability held. Under GCC (which has no
// analysis) they expand to nothing, so the annotations are pure
// documentation there.
//
// The names follow the canonical spellings from the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Use them with the
// medes::Mutex / medes::SharedMutex wrappers from common/mutex.h — the raw
// std:: primitives carry no capability attributes and are invisible to the
// analysis.
#ifndef MEDES_COMMON_ANNOTATIONS_H_
#define MEDES_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define MEDES_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MEDES_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// Class attributes: a type that acts as a lock / an RAII scoped lock.
#define CAPABILITY(x) MEDES_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY MEDES_THREAD_ANNOTATION(scoped_lockable)

// Data members: protected by a mutex.
#define GUARDED_BY(x) MEDES_THREAD_ANNOTATION(guarded_by(x))

// Static lock ordering: the named mutexes come first, so a thread holding
// this one must not then take them. Clang checks it under
// -Wthread-safety-beta.
#define ACQUIRED_AFTER(...) MEDES_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Function contracts: the caller must hold / must not hold the capability.
#define REQUIRES(...) MEDES_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) MEDES_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Function effects: the call acquires / releases the capability.
#define ACQUIRE(...) MEDES_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) MEDES_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) MEDES_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) MEDES_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

#endif  // MEDES_COMMON_ANNOTATIONS_H_
