//! The untraced benchmark binary (system allocator). See `src/lib.rs`.

fn main() -> std::process::ExitCode {
    perfbench::run(false)
}
