// Interactive / scripting client for orq_serve.
//
// Usage:
//   orq_client --port N [--host H] [commands...]
//
// Commands are executed in argv order:
//   --sql "SELECT ..."     run a query, print header + rows to stdout
//   --set "name value"     session SET (threads, exec, batch_size,
//                          morsel_rows, timeout_ms, slow_query_ms,
//                          plan_cache)
//   --admin CMD            admin command ("metrics", "metrics json",
//                          "metrics prom", "queries", "history [n]",
//                          "cancel <id>", "ping")
//   --scrape PORT          HTTP GET /metrics against the server's
//                          Prometheus listener, print the body
//   --ping                 liveness round-trip
//   --prepare "name SQL"   register a prepared statement (SQL may use ?)
//   --execute "name v..."  run a prepared statement; values are parsed
//                          per the types the server inferred at prepare
//                          time ('quoted strings' may contain spaces,
//                          null is the typed NULL)
//   --deallocate NAME      drop a prepared statement
//
// With no commands, reads a mini-REPL from stdin: each line is a query;
// \set name value, \metrics [json|prom], \queries, \history [n],
// \cancel id, \ping, \prepare name SQL, \execute name v1 v2 ...,
// \deallocate name, \q are meta commands (mirroring the frame types of
// the wire protocol).
//
// Exit code 0 when every command succeeded, 1 on the first failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/net.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: orq_client --port N [--host H] [--sql SQL] "
               "[--set \"name value\"] [--admin CMD] [--scrape PORT] "
               "[--ping] [--prepare \"name SQL\"] "
               "[--execute \"name values...\"] [--deallocate NAME]\n");
  return 2;
}

/// Parameter types per prepared-statement name, remembered from the
/// server's Prepare reply so \execute can parse value text into typed
/// wire Values.
using PreparedTypes = std::map<std::string, std::vector<orq::DataType>>;

void PrintResult(const orq::WireResult& result) {
  std::string header;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i > 0) header += "|";
    header += result.columns[i];
  }
  std::printf("%s\n", header.c_str());
  for (const std::string& row : result.rows) {
    std::printf("%s\n", row.c_str());
  }
  std::printf("(%zu row(s), %lld produced)\n", result.rows.size(),
              static_cast<long long>(result.rows_produced));
}

bool RunQuery(orq::Client* client, const std::string& sql) {
  orq::Result<orq::WireResult> result = client->Query(sql);
  if (!result.ok()) {
    // The server mints an id even for failed queries; print it so the
    // error can be cross-referenced against \history.
    if (!client->last_query_id().empty()) {
      std::fprintf(stderr, "error [%s]: %s\n",
                   client->last_query_id().c_str(),
                   result.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
    }
    return false;
  }
  PrintResult(result.value());
  return true;
}

bool RunScrape(const std::string& host, const std::string& port_text) {
  const int port = std::atoi(port_text.c_str());
  if (port <= 0) {
    std::fprintf(stderr, "error: --scrape expects a port, got \"%s\"\n",
                 port_text.c_str());
    return false;
  }
  orq::Result<std::string> body = orq::HttpGet(host, port, "/metrics");
  if (!body.ok()) {
    std::fprintf(stderr, "error: %s\n", body.status().ToString().c_str());
    return false;
  }
  std::printf("%s", body.value().c_str());
  return true;
}

bool RunSet(orq::Client* client, const std::string& spec) {
  const size_t space = spec.find_first_of(" =");
  if (space == std::string::npos) {
    std::fprintf(stderr, "error: --set expects \"name value\"\n");
    return false;
  }
  orq::Status status =
      client->Set(spec.substr(0, space), spec.substr(space + 1));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return false;
  }
  std::printf("SET ok\n");
  return true;
}

bool RunAdmin(orq::Client* client, const std::string& command) {
  orq::Result<std::string> reply = client->Admin(command);
  if (!reply.ok()) {
    std::fprintf(stderr, "error: %s\n", reply.status().ToString().c_str());
    return false;
  }
  std::printf("%s", reply.value().c_str());
  if (!reply.value().empty() && reply.value().back() != '\n') {
    std::printf("\n");
  }
  return true;
}

/// Splits on whitespace; a 'single-quoted' token may contain spaces (the
/// quotes are stripped, there is no escaping).
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == ' ' || text[i] == '\t') {
      ++i;
    } else if (text[i] == '\'') {
      size_t end = text.find('\'', i + 1);
      if (end == std::string::npos) end = text.size();
      tokens.push_back(text.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      size_t end = text.find_first_of(" \t", i);
      if (end == std::string::npos) end = text.size();
      tokens.push_back(text.substr(i, end - i));
      i = end;
    }
  }
  return tokens;
}

bool ParseParam(const std::string& text, orq::DataType type,
                orq::Value* out) {
  if (text == "null") {
    *out = orq::Value::Null(type);
    return true;
  }
  char* end = nullptr;
  switch (type) {
    case orq::DataType::kBool:
      if (text == "true" || text == "1") { *out = orq::Value::Bool(true); }
      else if (text == "false" || text == "0") {
        *out = orq::Value::Bool(false);
      } else { return false; }
      return true;
    case orq::DataType::kInt64: {
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') return false;
      *out = orq::Value::Int64(v);
      return true;
    }
    case orq::DataType::kDouble: {
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') return false;
      *out = orq::Value::Double(v);
      return true;
    }
    case orq::DataType::kString:
    case orq::DataType::kDate:
      // Dates travel as strings ("1995-06-01"); the server coerces.
      *out = orq::Value::String(text);
      return true;
  }
  return false;
}

bool RunPrepare(orq::Client* client, PreparedTypes* types,
                const std::string& spec) {
  const size_t space = spec.find(' ');
  if (space == std::string::npos) {
    std::fprintf(stderr, "error: prepare expects \"name SQL\"\n");
    return false;
  }
  const std::string name = spec.substr(0, space);
  orq::Result<orq::WirePrepared> prepared =
      client->Prepare(name, spec.substr(space + 1));
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 prepared.status().ToString().c_str());
    return false;
  }
  (*types)[name] = prepared->param_types;
  std::string type_names;
  for (orq::DataType t : prepared->param_types) {
    if (!type_names.empty()) type_names += ", ";
    type_names += orq::DataTypeName(t);
  }
  std::printf("PREPARE %s ok (%zu param(s)%s%s)\n", name.c_str(),
              prepared->param_types.size(),
              type_names.empty() ? "" : ": ", type_names.c_str());
  return true;
}

bool RunExecute(orq::Client* client, const PreparedTypes& types,
                const std::string& spec) {
  std::vector<std::string> tokens = Tokenize(spec);
  if (tokens.empty()) {
    std::fprintf(stderr, "error: execute expects \"name [values...]\"\n");
    return false;
  }
  const std::string name = tokens[0];
  auto it = types.find(name);
  if (it == types.end()) {
    std::fprintf(stderr, "error: no statement prepared as \"%s\" in this "
                         "client\n", name.c_str());
    return false;
  }
  if (tokens.size() - 1 != it->second.size()) {
    std::fprintf(stderr, "error: \"%s\" expects %zu value(s), got %zu\n",
                 name.c_str(), it->second.size(), tokens.size() - 1);
    return false;
  }
  std::vector<orq::Value> params;
  for (size_t i = 1; i < tokens.size(); ++i) {
    orq::Value value;
    if (!ParseParam(tokens[i], it->second[i - 1], &value)) {
      std::fprintf(stderr, "error: cannot parse \"%s\" as %s\n",
                   tokens[i].c_str(),
                   orq::DataTypeName(it->second[i - 1]).c_str());
      return false;
    }
    params.push_back(std::move(value));
  }
  orq::Result<orq::WireResult> result =
      client->ExecutePrepared(name, params);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return false;
  }
  PrintResult(result.value());
  return true;
}

bool RunDeallocate(orq::Client* client, PreparedTypes* types,
                   const std::string& name) {
  orq::Status status = client->Deallocate(name);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return false;
  }
  types->erase(name);
  std::printf("DEALLOCATE %s ok\n", name.c_str());
  return true;
}

bool RunPing(orq::Client* client) {
  orq::Status status = client->Ping();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return false;
  }
  std::printf("pong\n");
  return true;
}

int RunRepl(orq::Client* client) {
  PreparedTypes prepared_types;
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
    line = buf;
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line == "\\q" || line == "\\quit") break;
    if (line == "\\metrics" || line.rfind("\\metrics ", 0) == 0 ||
        line == "\\queries" || line == "\\history" ||
        line.rfind("\\history ", 0) == 0) {
      // Pass through sans backslash ("\metrics prom" -> "metrics prom");
      // introspection failures keep the REPL alive, like query errors.
      RunAdmin(client, line.substr(1));
    } else if (line.rfind("\\cancel ", 0) == 0) {
      // NotFound (the query already finished) is not fatal either.
      RunAdmin(client, line.substr(1));
    } else if (line == "\\ping") {
      if (!RunPing(client)) return 1;
    } else if (line.rfind("\\set ", 0) == 0) {
      if (!RunSet(client, line.substr(5))) return 1;
    } else if (line.rfind("\\prepare ", 0) == 0) {
      // Statement errors keep the REPL alive, like query errors.
      RunPrepare(client, &prepared_types, line.substr(9));
    } else if (line.rfind("\\execute ", 0) == 0) {
      RunExecute(client, prepared_types, line.substr(9));
    } else if (line.rfind("\\deallocate ", 0) == 0) {
      RunDeallocate(client, &prepared_types, line.substr(12));
    } else if (line[0] == '\\') {
      std::fprintf(stderr,
                   "unknown command %s (known: \\set, \\metrics, \\queries, "
                   "\\history, \\cancel, \\ping, \\prepare, \\execute, "
                   "\\deallocate, \\q)\n",
                   line.c_str());
    } else {
      // Query failures keep the REPL alive; only transport errors exit.
      RunQuery(client, line);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  struct Command {
    char kind;  // 'q' sql, 's' set, 'a' admin, 'm' scrape, 'p' ping
    std::string arg;
  };
  std::vector<Command> commands;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atoi(next("--port"));
    } else if (std::strcmp(argv[i], "--sql") == 0) {
      commands.push_back({'q', next("--sql")});
    } else if (std::strcmp(argv[i], "--set") == 0) {
      commands.push_back({'s', next("--set")});
    } else if (std::strcmp(argv[i], "--admin") == 0) {
      commands.push_back({'a', next("--admin")});
    } else if (std::strcmp(argv[i], "--scrape") == 0) {
      commands.push_back({'m', next("--scrape")});
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      commands.push_back({'p', ""});
    } else if (std::strcmp(argv[i], "--prepare") == 0) {
      commands.push_back({'P', next("--prepare")});
    } else if (std::strcmp(argv[i], "--execute") == 0) {
      commands.push_back({'x', next("--execute")});
    } else if (std::strcmp(argv[i], "--deallocate") == 0) {
      commands.push_back({'d', next("--deallocate")});
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return Usage();
    }
  }
  if (port <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return Usage();
  }

  orq::Result<orq::Client> connected = orq::Client::Connect(host, port);
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  orq::Client client = std::move(connected.value());

  if (commands.empty()) return RunRepl(&client);

  PreparedTypes prepared_types;
  for (const Command& command : commands) {
    bool ok = false;
    switch (command.kind) {
      case 'q': ok = RunQuery(&client, command.arg); break;
      case 's': ok = RunSet(&client, command.arg); break;
      case 'a': ok = RunAdmin(&client, command.arg); break;
      case 'm': ok = RunScrape(host, command.arg); break;
      case 'p': ok = RunPing(&client); break;
      case 'P': ok = RunPrepare(&client, &prepared_types, command.arg); break;
      case 'x': ok = RunExecute(&client, prepared_types, command.arg); break;
      case 'd': ok = RunDeallocate(&client, &prepared_types, command.arg);
                break;
    }
    if (!ok) return 1;
  }
  return 0;
}
