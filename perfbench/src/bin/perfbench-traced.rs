//! The traced benchmark binary: the same runs with a counting global
//! allocator installed, for the per-layer allocation counts.

#[global_allocator]
static ALLOC: perfbench::trace::CountingAlloc = perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::run(true)
}
