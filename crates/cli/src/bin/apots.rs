//! `apots` binary: thin wrapper over [`apots_cli::cli_main`].

fn main() -> std::process::ExitCode {
    apots_cli::cli_main()
}
